package uncertain_test

import (
	"reflect"
	"testing"

	"dpc/internal/transport"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

// TestUncertainTreeMatchesStar: the Section-5 summaries (hulls, collapsed
// points, shipped distributions) survive aggregation-tree re-grouping
// byte-for-byte — centers, budgets and logical accounting are identical to
// the star, and only the tree run carries per-level stats, its root inbox
// the star's bytes plus framing.
func TestUncertainTreeMatchesStar(t *testing.T) {
	in, sites := plantedUncertain(t, 200, 3, 9, 4, 0.05, 9)
	for _, kind := range []transport.Kind{transport.KindLoopback, transport.KindTCP} {
		for _, tc := range []struct {
			name string
			obj  uncertain.Objective
			vr   uncertain.Variant
		}{
			{"median-2round", uncertain.Median, uncertain.TwoRound},
			{"median-naive", uncertain.Median, uncertain.OneRoundShipDists},
			{"means-2round", uncertain.Means, uncertain.TwoRound},
			{"centerpp-2round", uncertain.CenterPP, uncertain.TwoRound},
		} {
			if kind == transport.KindTCP && tc.name != "median-2round" {
				continue // the tree layer is transport-agnostic; TCP re-runs one representative
			}
			t.Run(string(kind)+"/"+tc.name, func(t *testing.T) {
				cfg := uncertain.Config{K: 3, T: 8, Variant: tc.vr, Transport: kind}
				star, err := uncertain.Run(in.Ground, sites, cfg, tc.obj)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Topology = tree.Spec{Tree: true, Branch: 3}
				treed, err := uncertain.Run(in.Ground, sites, cfg, tc.obj)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(star.Centers, treed.Centers) {
					t.Fatalf("centers differ:\nstar: %v\ntree: %v", star.Centers, treed.Centers)
				}
				if !reflect.DeepEqual(star.SiteBudgets, treed.SiteBudgets) {
					t.Fatalf("budgets differ: %v vs %v", star.SiteBudgets, treed.SiteBudgets)
				}
				if star.Report.UpBytes != treed.Report.UpBytes || star.Report.DownBytes != treed.Report.DownBytes {
					t.Fatalf("logical bytes differ: %d/%d vs %d/%d",
						star.Report.UpBytes, star.Report.DownBytes, treed.Report.UpBytes, treed.Report.DownBytes)
				}
				if star.Report.Tree != nil {
					t.Fatalf("star run carries tree stats: %+v", star.Report.Tree)
				}
				tr := treed.Report.Tree
				if tr == nil {
					t.Fatal("tree run reported no per-level stats")
				}
				// Framing, per round: a batch per root link (<= branch) of 2
				// bytes magic and version, <= 4 of level and section counts
				// and two <= 5-byte varints per level below the root, and a
				// <= 3-byte length per site.
				perBatch := int64(6 + 10*(len(tr.Levels)-1))
				framing := int64(star.Report.Rounds) * (int64(tr.Branch)*perBatch + 3*int64(tr.Leaves))
				if root := tr.RootUpBytes(); root < star.Report.UpBytes || root > star.Report.UpBytes+framing {
					t.Fatalf("root inbox %d B outside [star inbox %d B, +%d B of framing]", root, star.Report.UpBytes, framing)
				}
			})
		}
	}
}

// TestCenterGTreeMatchesStar: Algorithm 4's pivot exchange — whose round-0
// payloads mix per-site grids with the pivot site's distribution — also
// re-groups losslessly.
func TestCenterGTreeMatchesStar(t *testing.T) {
	in, sites := plantedUncertain(t, 150, 2, 9, 3, 0.05, 13)
	cfg := uncertain.Config{K: 2, T: 6}
	star, err := uncertain.Run(in.Ground, sites, cfg, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = tree.Spec{Tree: true, Branch: 3}
	treed, err := uncertain.Run(in.Ground, sites, cfg, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(star.Centers, treed.Centers) {
		t.Fatalf("centers differ:\nstar: %v\ntree: %v", star.Centers, treed.Centers)
	}
	if star.Tau != treed.Tau {
		t.Fatalf("tau differs: %g vs %g", star.Tau, treed.Tau)
	}
	if !reflect.DeepEqual(star.SiteBudgets, treed.SiteBudgets) {
		t.Fatalf("budgets differ: %v vs %v", star.SiteBudgets, treed.SiteBudgets)
	}
	if star.Report.UpBytes != treed.Report.UpBytes || star.Report.DownBytes != treed.Report.DownBytes {
		t.Fatalf("logical bytes differ: %d/%d vs %d/%d",
			star.Report.UpBytes, star.Report.DownBytes, treed.Report.UpBytes, treed.Report.DownBytes)
	}
	if treed.Report.Tree == nil || treed.Report.Tree.RootUpBytes() <= 0 {
		t.Fatalf("tree run missing per-level stats: %+v", treed.Report.Tree)
	}
}
