package uncertain_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"dpc/internal/gen"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

func plantedUncertain(t *testing.T, n, k, s, m int, outFrac float64, seed int64) (gen.UncertainInstance, [][]uncertain.Node) {
	t.Helper()
	in := gen.UncertainMixture(gen.UncertainSpec{
		N: n, K: k, Dim: 2, Support: m, OutlierFrac: outFrac, Seed: seed,
	})
	parts := gen.PartitionNodes(in, s, gen.Uniform, seed+1)
	return in, gen.SiteNodes(in, parts)
}

func TestUncertainRunValidation(t *testing.T) {
	in, sites := plantedUncertain(t, 40, 2, 2, 3, 0, 1)
	if _, err := uncertain.Run(in.Ground, nil, uncertain.Config{K: 1}, uncertain.Median); err == nil {
		t.Error("no sites accepted")
	}
	if _, err := uncertain.Run(in.Ground, [][]uncertain.Node{sites[0], {}}, uncertain.Config{K: 1}, uncertain.Median); err == nil {
		t.Error("empty site accepted")
	}
	if _, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 0}, uncertain.Median); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 1, T: 40}, uncertain.Median); err == nil {
		t.Error("T=n accepted")
	}
}

func TestUncertainMedianEndToEnd(t *testing.T) {
	in, sites := plantedUncertain(t, 240, 3, 4, 4, 0.05, 2)
	cfg := uncertain.Config{K: 3, T: 12}
	res, err := uncertain.Run(in.Ground, sites, cfg, uncertain.Median)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 3 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	if res.Report.Rounds != 2 {
		t.Fatalf("rounds = %d", res.Report.Rounds)
	}
	// Quality: with t nodes excludable the planted outliers go away; cost
	// should be within a small factor of clustering around true centers.
	got := uncertain.EvalMedian(in.Ground, in.Nodes, res.Centers, res.OutlierBudget)
	ref := uncertain.EvalMedian(in.Ground, in.Nodes, in.TrueCenters, float64(cfg.T))
	if ref > 0 && got > 6*ref {
		t.Fatalf("uncertain median cost %g vs true-center reference %g", got, ref)
	}
}

func TestUncertainMeansEndToEnd(t *testing.T) {
	in, sites := plantedUncertain(t, 200, 3, 4, 3, 0.05, 3)
	res, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 3, T: 10}, uncertain.Means)
	if err != nil {
		t.Fatal(err)
	}
	got := uncertain.EvalMeans(in.Ground, in.Nodes, res.Centers, res.OutlierBudget)
	ref := uncertain.EvalMeans(in.Ground, in.Nodes, in.TrueCenters, 10)
	if ref > 0 && got > 10*ref {
		t.Fatalf("uncertain means cost %g vs reference %g", got, ref)
	}
}

func TestUncertainCenterPPEndToEnd(t *testing.T) {
	in, sites := plantedUncertain(t, 240, 3, 4, 3, 0.05, 4)
	res, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 3, T: 12}, uncertain.CenterPP)
	if err != nil {
		t.Fatal(err)
	}
	got := uncertain.EvalCenterPP(in.Ground, in.Nodes, res.Centers, float64(res.OutlierBudget))
	ref := uncertain.EvalCenterPP(in.Ground, in.Nodes, in.TrueCenters, 12)
	if ref > 0 && got > 10*ref {
		t.Fatalf("center-pp %g vs reference %g", got, ref)
	}
}

// The headline of Algorithm 3: communication does not grow with the support
// size m (the naive baseline's does, via the t*I term).
func TestUncertainCommIndependentOfSupportSize(t *testing.T) {
	bytesFor := func(m int, variant uncertain.Variant) int64 {
		in, sites := plantedUncertain(t, 240, 3, 4, m, 0.1, 5)
		res, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 3, T: 24, Variant: variant}, uncertain.Median)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.UpBytes
	}
	smartSmall := bytesFor(2, uncertain.TwoRound)
	smartBig := bytesFor(16, uncertain.TwoRound)
	naiveSmall := bytesFor(2, uncertain.OneRoundShipDists)
	naiveBig := bytesFor(16, uncertain.OneRoundShipDists)
	if g := float64(smartBig) / float64(smartSmall); g > 1.3 {
		t.Fatalf("Algorithm 3 bytes grew with m: %d -> %d (x%.2f)", smartSmall, smartBig, g)
	}
	if g := float64(naiveBig) / float64(naiveSmall); g < 1.5 {
		t.Fatalf("naive baseline should grow with m: %d -> %d (x%.2f)", naiveSmall, naiveBig, g)
	}
}

func TestUncertainDeterministic(t *testing.T) {
	in, sites := plantedUncertain(t, 120, 2, 3, 3, 0.05, 6)
	cfg := uncertain.Config{K: 2, T: 6}
	a, err := uncertain.Run(in.Ground, sites, cfg, uncertain.Median)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uncertain.Run(in.Ground, sites, cfg, uncertain.Median)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.UpBytes != b.Report.UpBytes || len(a.Centers) != len(b.Centers) {
		t.Fatal("non-deterministic run")
	}
	for i := range a.Centers {
		if !a.Centers[i].Equal(b.Centers[i]) {
			t.Fatal("centers differ")
		}
	}
}

func TestCenterGEndToEnd(t *testing.T) {
	in, sites := plantedUncertain(t, 90, 3, 3, 3, 0.05, 7)
	cfg := uncertain.Config{K: 3, T: 5}
	res, err := uncertain.Run(in.Ground, sites, cfg, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 3 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	if res.Report.Rounds != 2 {
		t.Fatalf("rounds = %d", res.Report.Rounds)
	}
	if res.Tau <= 0 {
		t.Fatalf("tau = %g", res.Tau)
	}
	// tau grid covers [dmin/18, > dmax]: |grid| = O(log Delta).
	dmin, dmax := in.Ground.MinMax()
	if res.TauGrid[0] > dmin/18+1e-9 {
		t.Fatalf("grid starts at %g, want %g", res.TauGrid[0], dmin/18)
	}
	if last := res.TauGrid[len(res.TauGrid)-1]; last < dmax/18 {
		t.Fatalf("grid ends at %g, dmax=%g", last, dmax)
	}
	// Quality: Monte-Carlo objective should be in the same ballpark as the
	// true-centers reference (generous factor; MC + heuristic O).
	got := uncertain.EvalCenterG(in.Ground, in.Nodes, res.Centers, res.OutlierBudget, 100, 1)
	ref := uncertain.EvalCenterG(in.Ground, in.Nodes, in.TrueCenters, 5, 100, 1)
	if ref > 0 && got > 12*ref {
		t.Fatalf("center-g %g vs reference %g", got, ref)
	}
}

func TestCenterGValidation(t *testing.T) {
	in, sites := plantedUncertain(t, 40, 2, 2, 3, 0, 8)
	if _, err := uncertain.Run(in.Ground, nil, uncertain.Config{K: 1}, uncertain.CenterG); err == nil {
		t.Error("no sites accepted")
	}
	if _, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 0}, uncertain.CenterG); err == nil {
		t.Error("K=0 accepted")
	}
	// Degenerate ground set (all points identical) is rejected.
	g := &uncertain.Ground{}
	g.Pts = append(g.Pts, []float64{0}, []float64{0})
	nodes := [][]uncertain.Node{{{Support: []int{0}, Prob: []float64{1}}}}
	if _, err := uncertain.Run(g, nodes, uncertain.Config{K: 1}, uncertain.CenterG); err == nil {
		t.Error("degenerate ground accepted")
	}
}

// TestConfigRejectsHostileKnobs: a knob no run can use is an error from
// every entry point of both halves — the site handler a daemon builds from
// a job frame, the in-process run and the coordinator over a fleet — never
// a panic, and never a run on a non-finite allocation rank.
func TestConfigRejectsHostileKnobs(t *testing.T) {
	in, sites := plantedUncertain(t, 40, 2, 2, 3, 0, 10)
	tr := transport.NewLoopback(nil, true)
	defer tr.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		obj  uncertain.Objective
		cfg  uncertain.Config
		want string
	}{
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, TauBase: 1}, "TauBase"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, TauBase: 0.5}, "TauBase"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, TauBase: math.Inf(1)}, "TauBase"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, TauBase: math.NaN()}, "TauBase"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, TauBase: 1 + 1e-12}, "thresholds"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, MaxFacilities: -1}, "MaxFacilities"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, Eps: math.NaN()}, "Eps"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, Eps: -5}, "Eps"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, Eps: 1e308}, "Eps"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, Rho: math.Inf(1)}, "Rho"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, HullBase: math.Inf(-1)}, "HullBase"},
		{uncertain.Median, uncertain.Config{K: 3, T: 6, Eps: math.Inf(1)}, "Eps"},
		{uncertain.Median, uncertain.Config{K: 3, T: 6, Eps: -5}, "Eps"},
		{uncertain.Median, uncertain.Config{K: 3, T: 6, Eps: 1e308}, "Eps"},
		{uncertain.Median, uncertain.Config{K: 3, T: 6, Rho: math.NaN()}, "Rho"},
		{uncertain.Median, uncertain.Config{K: 3, T: 6, HullBase: math.NaN()}, "HullBase"},
		// A frame's enums: an objective or variant no protocol has used to run
		// as u-median or as the 2-round variant.
		{uncertain.Objective(9), uncertain.Config{K: 3, T: 6}, "objective"},
		{uncertain.Objective(-1), uncertain.Config{K: 3, T: 6}, "objective"},
		{uncertain.Median, uncertain.Config{K: 3, T: 6, Variant: 7}, "variant"},
		{uncertain.CenterG, uncertain.Config{K: 3, T: 6, Variant: -1}, "variant"},
	} {
		for name, run := range map[string]func() error{
			"site": func() error {
				_, err := uncertain.NewSiteHandler(in.Ground, sites[0], tc.cfg, tc.obj, 0)
				return err
			},
			"local":       func() error { _, err := uncertain.Run(in.Ground, sites, tc.cfg, tc.obj); return err },
			"coordinator": func() error { _, err := uncertain.RunOverCtx(ctx, in.Ground, tr, tc.cfg, tc.obj); return err },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v %s %+v: error %v, want one naming %s", tc.obj, name, tc.cfg, err, tc.want)
			}
		}
	}
}

// Communication of Algorithm 4 carries the t*I term: bytes grow with support
// size m (outliers ship as full distributions), unlike Algorithm 3.
func TestCenterGShipsDistributions(t *testing.T) {
	bytesFor := func(m int) int64 {
		in, sites := plantedUncertain(t, 90, 3, 3, m, 0.1, 9)
		res, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 3, T: 9}, uncertain.CenterG)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.UpBytes
	}
	small := bytesFor(2)
	big := bytesFor(12)
	if big <= small {
		t.Fatalf("center-g bytes should grow with m: %d -> %d", small, big)
	}
}
