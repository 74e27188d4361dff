package core

import (
	"reflect"
	"testing"

	"dpc/internal/kmedian"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// TestTreeMatchesStar is the acceptance gate of the aggregation-tree layer
// for the point objectives: the same seeded instance run through a tree of
// aggregators must return byte-identical centers, budgets and logical byte
// accounting as the star, for every objective × variant and on both wire
// backends — the merge is a lossless re-grouping of the same summaries.
func TestTreeMatchesStar(t *testing.T) {
	sites := testSites(9, 180, 3, 7)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"median-2round", Config{K: 3, T: 12, Objective: Median, Variant: TwoRound}},
		{"median-1round", Config{K: 3, T: 12, Objective: Median, Variant: OneRound}},
		{"median-noship", Config{K: 3, T: 12, Objective: Median, Variant: TwoRoundNoOutliers}},
		{"means-2round", Config{K: 3, T: 12, Objective: Means, Variant: TwoRound}},
		{"center-2round", Config{K: 3, T: 12, Objective: Center, Variant: TwoRound}},
		{"center-1round", Config{K: 3, T: 12, Objective: Center, Variant: OneRound}},
		{"center-noship", Config{K: 3, T: 12, Objective: Center, Variant: TwoRoundNoOutliers}},
	}
	for _, kind := range []transport.Kind{transport.KindLoopback, transport.KindTCP} {
		for _, tc := range cases {
			if kind == transport.KindTCP && tc.name != "median-2round" && tc.name != "center-noship" {
				// TCP re-runs a representative subset; the full matrix runs
				// in-process (the tree layer is identical either way, TCP
				// only changes the framing underneath it).
				continue
			}
			t.Run(string(kind)+"/"+tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.LocalOpts = kmedian.Options{Seed: 11}
				cfg.Transport = kind
				star, err := Run(sites, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Topology = tree.Spec{Tree: true, Branch: 3}
				treed, err := Run(sites, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertTreeParity(t, star, treed)
			})
		}
	}
}

// TestTreeDeepMatchesStar drives a depth-4 tree (30 leaves at branch 3:
// 30 -> 10 -> 4 -> 2 aggregator tiers) to cover recursive batch merging,
// not just the two-level shape.
func TestTreeDeepMatchesStar(t *testing.T) {
	sites := testSites(30, 300, 2, 5)
	cfg := Config{K: 3, T: 15, Objective: Median, Variant: TwoRound, LocalOpts: kmedian.Options{Seed: 3}}
	star, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = tree.Spec{Tree: true, Branch: 3}
	treed, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertTreeParity(t, star, treed)
	tr := treed.Report.Tree
	if tr == nil {
		t.Fatal("tree run reported no per-level stats")
	}
	if len(tr.Levels) != 4 {
		t.Fatalf("depth-4 tree reported %d levels: %+v", len(tr.Levels), tr.Levels)
	}
}

// TestTreeInboxCurve sweeps the site count with everything else fixed (24
// points a site, dim 4, k=8, t=s, the default branch, median and center):
// at every s the tree returns the star's answer and logical byte
// accounting, and the root's physical inbox is the star's plus framing (an
// aggregator relays its sites' payloads as they are; assertTreeParity holds
// the bound). What the compact payload encoding saves it saves on both
// topologies, so the median run also pins the root inbox to no more than
// it was when the tree re-packed the star's fixed-width payloads (PR 21).
// At s <= branch the tree degenerates to the star.
func TestTreeInboxCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("12 runs up to 256 sites")
	}
	repacked := map[int]int64{16: 10585, 64: 42314, 256: 169011}
	for _, obj := range []Objective{Median, Center} {
		t.Run(obj.String(), func(t *testing.T) {
			t.Parallel()
			for _, s := range []int{8, 16, 32, 64, 128, 256} {
				sites := testSites(s, s*24, 4, 1+int64(s)*1009)
				cfg := Config{
					K: 8, T: s, Objective: obj, Variant: TwoRound,
					LocalOpts: kmedian.Options{Seed: 1}, Transport: transport.KindLoopback,
				}
				star, err := Run(sites, cfg)
				if err != nil {
					t.Fatalf("s=%d star: %v", s, err)
				}
				cfg.Topology = tree.Spec{Tree: true, Branch: tree.DefaultBranch}
				treed, err := Run(sites, cfg)
				if err != nil {
					t.Fatalf("s=%d tree: %v", s, err)
				}
				if s <= tree.DefaultBranch {
					assertSameAnswer(t, star, treed)
					if treed.Report.Tree != nil {
						t.Fatalf("s=%d <= branch: degenerate tree reports levels: %+v", s, treed.Report.Tree)
					}
					continue
				}
				assertTreeParity(t, star, treed)
				root := treed.Report.Tree.RootUpBytes()
				t.Logf("s=%d: star inbox %d B, tree root inbox %d B", s, star.Report.UpBytes, root)
				if was, ok := repacked[s]; ok && obj == Median && root > was {
					t.Fatalf("s=%d: root inbox %d B above the re-packing tree's %d B", s, root, was)
				}
			}
		})
	}
}

// assertTreeParity checks the star/tree invariants: identical results and
// identical logical accounting, with physical per-level stats only on the
// tree side, and a root inbox of the star's bytes plus at most the framing:
// per round, each of the root's <= branch batches spends 2 bytes on magic
// and version, <= 4 on the level and section counts and two <= 5-byte
// varints on each level below the root, and each site's section a <= 3-byte
// length.
func assertTreeParity(t *testing.T, star, treed Result) {
	t.Helper()
	assertSameAnswer(t, star, treed)
	if star.Report.Tree != nil {
		t.Fatalf("star run carries tree stats: %+v", star.Report.Tree)
	}
	tr := treed.Report.Tree
	if tr == nil {
		t.Fatal("tree run reported no per-level stats")
	}
	perBatch := int64(6 + 10*(len(tr.Levels)-1))
	framing := int64(star.Report.Rounds) * (int64(tr.Branch)*perBatch + 3*int64(tr.Leaves))
	if root := tr.RootUpBytes(); root < star.Report.UpBytes || root > star.Report.UpBytes+framing {
		t.Fatalf("root inbox %d B outside [star inbox %d B, +%d B of framing]", root, star.Report.UpBytes, framing)
	}
}

// assertSameAnswer checks that two runs returned identical results and
// identical logical accounting.
func assertSameAnswer(t *testing.T, star, treed Result) {
	t.Helper()
	if !reflect.DeepEqual(star.Centers, treed.Centers) {
		t.Fatalf("centers differ:\nstar: %v\ntree: %v", star.Centers, treed.Centers)
	}
	if !reflect.DeepEqual(star.SiteBudgets, treed.SiteBudgets) {
		t.Fatalf("budgets differ: %v vs %v", star.SiteBudgets, treed.SiteBudgets)
	}
	if star.OutlierBudget != treed.OutlierBudget {
		t.Fatalf("outlier budget differs: %v vs %v", star.OutlierBudget, treed.OutlierBudget)
	}
	if star.CoordinatorCost != treed.CoordinatorCost || star.CoordinatorClients != treed.CoordinatorClients {
		t.Fatalf("coordinator instance differs: cost %v/%v clients %d/%d",
			star.CoordinatorCost, treed.CoordinatorCost, star.CoordinatorClients, treed.CoordinatorClients)
	}
	// The logical accounting (exact site payload bytes) must not move: the
	// tree carries the same summaries, just grouped.
	if star.Report.UpBytes != treed.Report.UpBytes ||
		star.Report.DownBytes != treed.Report.DownBytes ||
		star.Report.Rounds != treed.Report.Rounds {
		t.Fatalf("logical accounting differs: star %d up/%d down/%d rounds, tree %d up/%d down/%d rounds",
			star.Report.UpBytes, star.Report.DownBytes, star.Report.Rounds,
			treed.Report.UpBytes, treed.Report.DownBytes, treed.Report.Rounds)
	}
}
