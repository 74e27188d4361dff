package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/exact"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// plantedSites builds a planted instance split across s sites.
func plantedSites(t *testing.T, n, k, s int, outFrac float64, mode gen.PartitionMode, seed int64) (gen.Instance, [][]metric.Point) {
	t.Helper()
	in := gen.Mixture(gen.MixtureSpec{N: n, K: k, Dim: 2, OutlierFrac: outFrac, Seed: seed})
	parts := gen.Partition(in, s, mode, seed+1)
	return in, gen.SitePoints(in, parts)
}

func TestRunValidation(t *testing.T) {
	pts := []metric.Point{{0}, {1}}
	if _, err := Run(nil, Config{K: 1}); err == nil {
		t.Error("no sites accepted")
	}
	if _, err := Run([][]metric.Point{pts, {}}, Config{K: 1}); err == nil {
		t.Error("empty site accepted")
	}
	if _, err := Run([][]metric.Point{pts}, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run([][]metric.Point{pts}, Config{K: 1, T: 2}); err == nil {
		t.Error("T=n accepted")
	}
	if _, err := Run([][]metric.Point{pts}, Config{K: 1, T: -1}); err == nil {
		t.Error("negative T accepted")
	}
	if _, err := Run([][]metric.Point{pts}, Config{K: 1, Objective: Objective(9)}); err == nil {
		t.Error("bad objective accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, cfg := range map[string]Config{
			"Eps":      {K: 1, Eps: bad},
			"Rho":      {K: 1, Rho: bad},
			"Delta":    {K: 1, Delta: bad, Variant: TwoRoundNoOutliers},
			"HullBase": {K: 1, HullBase: bad},
		} {
			_, err := Run([][]metric.Point{pts}, cfg)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: err = %v, want one naming the field", name, bad, err)
			}
		}
	}
	// A negative Eps, or one whose (1+Eps)T overflows, budgets nothing.
	for _, bad := range []float64{-5, 1e308} {
		_, err := Run([][]metric.Point{append(pts, metric.Point{2})}, Config{K: 1, T: 2, Eps: bad})
		if err == nil || !strings.Contains(err.Error(), "Eps") {
			t.Errorf("Eps = %v: err = %v, want one naming the field", bad, err)
		}
	}
	// A variant outside the three, as a job frame can carry it, used to run
	// as the 2-round protocol; every entry point of both halves refuses it.
	tr := transport.NewLoopback(nil, true)
	defer tr.Close()
	for _, vr := range []Variant{9, -1} {
		cfg := Config{K: 1, Variant: vr}
		for name, run := range map[string]func() error{
			"site":        func() error { _, err := NewSiteHandlerOracle(cfg, 0, pts, nil); return err },
			"local":       func() error { _, err := Run([][]metric.Point{pts}, cfg); return err },
			"coordinator": func() error { _, err := RunOverCtx(context.Background(), tr, cfg); return err },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), "variant") {
				t.Errorf("Variant = %d, %s: err = %v, want one naming the variant", int(vr), name, err)
			}
		}
	}
}

func TestMedianTwoRoundEndToEnd(t *testing.T) {
	in, sites := plantedSites(t, 600, 4, 6, 0.05, gen.Uniform, 1)
	cfg := Config{K: 4, T: 30, Objective: Median}
	res, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 4 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	if res.Report.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Report.Rounds)
	}
	// Quality: compare to a centralized solve of the same engine.
	central := kmedian.LocalSearch(in.Points(), nil, 4, 30, kmedian.Options{Seed: 9, Restarts: 3})
	distCost := Evaluate(in.Pts, res.Centers, res.OutlierBudget, Median)
	if central.Cost > 0 && distCost > 5*central.Cost {
		t.Fatalf("distributed cost %g vs centralized %g: ratio %.2f too large",
			distCost, central.Cost, distCost/central.Cost)
	}
	// Lemma 3.5: sum of site budgets <= 3t.
	sum := 0
	for _, b := range res.SiteBudgets {
		sum += b
	}
	if sum > 3*cfg.T {
		t.Fatalf("sum of site budgets %d > 3t = %d", sum, 3*cfg.T)
	}
	// Theorem 3.6: coordinator instance has at most 2sk + 3t points.
	if res.CoordinatorClients > 2*6*4+3*30 {
		t.Fatalf("coordinator saw %d points > 2sk+3t", res.CoordinatorClients)
	}
}

func TestMeansTwoRoundEndToEnd(t *testing.T) {
	in, sites := plantedSites(t, 500, 3, 5, 0.04, gen.Uniform, 2)
	res, err := Run(sites, Config{K: 3, T: 20, Objective: Means})
	if err != nil {
		t.Fatal(err)
	}
	central := kmedian.LocalSearch(metric.Squared{C: in.Points()}, nil, 3, 20, kmedian.Options{Seed: 4, Restarts: 3})
	distCost := Evaluate(in.Pts, res.Centers, res.OutlierBudget, Means)
	if central.Cost > 0 && distCost > 8*central.Cost {
		t.Fatalf("means ratio %.2f too large (%g vs %g)", distCost/central.Cost, distCost, central.Cost)
	}
}

func TestCenterTwoRoundEndToEnd(t *testing.T) {
	in, sites := plantedSites(t, 600, 4, 6, 0.05, gen.Uniform, 3)
	res, err := Run(sites, Config{K: 4, T: 30, Objective: Center})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Rounds != 2 {
		t.Fatalf("rounds = %d", res.Report.Rounds)
	}
	// The planted instance has 30 outliers; with t=30 the radius should be
	// on the order of the cluster spread, far below the outlier scale.
	radius := Evaluate(in.Pts, res.Centers, float64(res.OutlierBudget), Center)
	if radius > 100 {
		t.Fatalf("center radius %g too large (outliers not excluded?)", radius)
	}
}

func TestMedianCommunicationIndependentOfN(t *testing.T) {
	// The headline claim of Table 1: communication Otilde((sk+t)B), not a
	// function of n. Quadruple n and expect nearly unchanged bytes.
	_, small := plantedSites(t, 400, 3, 5, 0.05, gen.Uniform, 4)
	_, big := plantedSites(t, 1600, 3, 5, 0.05, gen.Uniform, 5)
	cfg := Config{K: 3, T: 20, Objective: Median}
	rs, err := Run(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rb.Report.TotalBytes()) / float64(rs.Report.TotalBytes())
	if ratio > 1.5 {
		t.Fatalf("bytes grew with n: %d -> %d (x%.2f)", rs.Report.TotalBytes(), rb.Report.TotalBytes(), ratio)
	}
}

func TestTwoRoundBeatsOneRoundOnBytes(t *testing.T) {
	// With t >> k the one-round baseline ships ~s*t outlier points; the
	// two-round protocol ships ~t. Expect a substantial gap.
	_, sites := plantedSites(t, 1200, 3, 8, 0.1, gen.Uniform, 6)
	two, err := Run(sites, Config{K: 3, T: 100, Objective: Median})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(sites, Config{K: 3, T: 100, Objective: Median, Variant: OneRound})
	if err != nil {
		t.Fatal(err)
	}
	if one.Report.Rounds != 1 {
		t.Fatalf("one-round rounds = %d", one.Report.Rounds)
	}
	if float64(one.Report.UpBytes) < 2*float64(two.Report.UpBytes) {
		t.Fatalf("expected >=2x gap: one-round %d vs two-round %d",
			one.Report.UpBytes, two.Report.UpBytes)
	}
}

func TestNoShipVariantBytesFlatInT(t *testing.T) {
	// Theorem 3.8: no t*B term. Communication should stay nearly flat as t
	// grows, unlike the shipping variant.
	_, sites := plantedSites(t, 1200, 3, 6, 0.15, gen.Uniform, 7)
	bytesAt := func(tt int, variant Variant) int64 {
		res, err := Run(sites, Config{K: 3, T: tt, Objective: Median, Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.UpBytes
	}
	noShipSmall := bytesAt(10, TwoRoundNoOutliers)
	noShipBig := bytesAt(150, TwoRoundNoOutliers)
	shipSmall := bytesAt(10, TwoRound)
	shipBig := bytesAt(150, TwoRound)
	if g := float64(noShipBig) / float64(noShipSmall); g > 1.6 {
		t.Fatalf("no-ship bytes grew with t: %d -> %d (x%.2f)", noShipSmall, noShipBig, g)
	}
	if g := float64(shipBig) / float64(shipSmall); g < 2 {
		t.Fatalf("shipping variant should grow with t: %d -> %d (x%.2f)", shipSmall, shipBig, g)
	}
}

func TestCenterCommunicationScaling(t *testing.T) {
	_, sites := plantedSites(t, 1000, 3, 8, 0.1, gen.Uniform, 8)
	two, err := Run(sites, Config{K: 3, T: 80, Objective: Center})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(sites, Config{K: 3, T: 80, Objective: Center, Variant: OneRound})
	if err != nil {
		t.Fatal(err)
	}
	if float64(one.Report.UpBytes) < 1.8*float64(two.Report.UpBytes) {
		t.Fatalf("expected gap: one-round %d vs two-round %d", one.Report.UpBytes, two.Report.UpBytes)
	}
	// Coordinator instance bounded by sk + rho*t + t.
	if two.CoordinatorClients > 8*3+3*80 {
		t.Fatalf("coordinator saw %d points", two.CoordinatorClients)
	}
}

// Appendix A's center "(2+delta)t" row: ship only k centers per site; bytes
// stay flat as t grows while the shipping variant's bytes track k+t.
func TestCenterNoShipBytesFlatInT(t *testing.T) {
	_, sites := plantedSites(t, 1200, 3, 6, 0.15, gen.Uniform, 71)
	bytesAt := func(tt int, v Variant) (int64, Result) {
		res, err := Run(sites, Config{K: 3, T: tt, Objective: Center, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.UpBytes, res
	}
	nsSmall, _ := bytesAt(10, TwoRoundNoOutliers)
	nsBig, resBig := bytesAt(150, TwoRoundNoOutliers)
	shSmall, _ := bytesAt(10, TwoRound)
	shBig, _ := bytesAt(150, TwoRound)
	if g := float64(nsBig) / float64(nsSmall); g > 1.5 {
		t.Fatalf("center no-ship bytes grew with t: %d -> %d", nsSmall, nsBig)
	}
	if g := float64(shBig) / float64(shSmall); g < 2 {
		t.Fatalf("center shipping bytes should grow with t: %d -> %d", shSmall, shBig)
	}
	// Ignored entitlement covers t + silently dropped site points.
	if resBig.OutlierBudget < 150 {
		t.Fatalf("entitlement = %g, want >= t", resBig.OutlierBudget)
	}
	if resBig.OutlierBudget > float64(150+3*150+1) {
		t.Fatalf("entitlement = %g too large", resBig.OutlierBudget)
	}
	// The radius at the entitlement stays sane (outliers excludable).
	in2, sites2 := plantedSites(t, 1200, 3, 6, 0.05, gen.Uniform, 72)
	res2, err := Run(sites2, Config{K: 3, T: 90, Objective: Center, Variant: TwoRoundNoOutliers})
	if err != nil {
		t.Fatal(err)
	}
	radius := Evaluate(in2.Pts, res2.Centers, res2.OutlierBudget, Center)
	if radius > 120 {
		t.Fatalf("no-ship center radius %g", radius)
	}
}

func TestOutlierHeavyAllocationConcentrates(t *testing.T) {
	// All planted outliers on site 0: the allocation should hand site 0 a
	// much larger outlier budget than the average site.
	in, _ := plantedSites(t, 800, 4, 8, 0.1, gen.OutlierHeavy, 9)
	parts := gen.Partition(in, 8, gen.OutlierHeavy, 10)
	sites := gen.SitePoints(in, parts)
	res, err := Run(sites, Config{K: 4, T: 80, Objective: Median})
	if err != nil {
		t.Fatal(err)
	}
	others := 0
	for i := 1; i < len(res.SiteBudgets); i++ {
		others += res.SiteBudgets[i]
	}
	avg := float64(others) / 7
	if float64(res.SiteBudgets[0]) < 2*avg {
		t.Fatalf("budget not concentrated: site0=%d, avg others=%.1f (budgets %v)",
			res.SiteBudgets[0], avg, res.SiteBudgets)
	}
}

func TestMedianApproximationVersusExact(t *testing.T) {
	// Tiny instance where exact optimum is computable: the distributed
	// solution with (1+eps)t outliers must be within a modest factor of
	// OPT(k,t).
	in := gen.Mixture(gen.MixtureSpec{N: 16, K: 2, Dim: 2, OutlierFrac: 0.12, Seed: 11, Box: 20})
	parts := gen.Partition(in, 2, gen.Uniform, 12)
	sites := gen.SitePoints(in, parts)
	cfg := Config{K: 2, T: 2, Objective: Median, Eps: 1}
	res, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := exact.Solve(in.Points(), nil, 2, 2, exact.Sum)
	got := Evaluate(in.Pts, res.Centers, res.OutlierBudget, Median)
	if opt.Cost > 0 && got > 20*opt.Cost {
		t.Fatalf("distributed %g vs exact OPT %g: ratio %.1f", got, opt.Cost, got/opt.Cost)
	}
}

func TestCenterApproximationVersusExact(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 14, K: 2, Dim: 2, OutlierFrac: 0.14, Seed: 13, Box: 20})
	parts := gen.Partition(in, 2, gen.Uniform, 14)
	sites := gen.SitePoints(in, parts)
	res, err := Run(sites, Config{K: 2, T: 2, Objective: Center})
	if err != nil {
		t.Fatal(err)
	}
	opt := exact.Solve(in.Points(), nil, 2, 2, exact.Max)
	got := Evaluate(in.Pts, res.Centers, res.OutlierBudget, Center)
	if opt.Cost > 0 && got > 12*opt.Cost {
		t.Fatalf("distributed radius %g vs exact %g", got, opt.Cost)
	}
}

// TestRunDeterministicGivenSeed: identical configurations give identical
// runs, and the engine LocalOpts names is the one that runs — its sites hold
// 75 points, where auto picks JV, so only the local-search row's cost and
// bytes (pinned from a run of the enum this field replaced) show that the
// setting reached every solve.
func TestRunDeterministicGivenSeed(t *testing.T) {
	in, sites := plantedSites(t, 300, 3, 4, 0.05, gen.Uniform, 15)
	for _, tc := range []struct {
		algo engine.Algo
		cost string
		up   int64
	}{
		{engine.Auto, "309.842252", 1178},
		{engine.LocalSearch, "312.547972", 1131},
	} {
		cfg := Config{K: 3, T: 15, Objective: Median, LocalOpts: kmedian.Options{Seed: 99, Options: engine.Options{Algo: tc.algo}}}
		a, err := Run(sites, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sites, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Centers) != len(b.Centers) {
			t.Fatalf("%v: center counts differ", tc.algo)
		}
		for i := range a.Centers {
			if !a.Centers[i].Equal(b.Centers[i]) {
				t.Fatalf("%v: centers differ between identical runs", tc.algo)
			}
		}
		if a.Report.UpBytes != b.Report.UpBytes {
			t.Fatalf("%v: bytes differ between identical runs", tc.algo)
		}
		if cost := fmt.Sprintf("%.6f", Evaluate(in.Pts, a.Centers, a.OutlierBudget, Median)); cost != tc.cost || a.Report.UpBytes != tc.up {
			t.Errorf("%v: cost %s with %d up bytes, want %s with %d", tc.algo, cost, a.Report.UpBytes, tc.cost, tc.up)
		}
	}
}

func TestSequentialModeMatchesParallel(t *testing.T) {
	_, sites := plantedSites(t, 300, 3, 4, 0.05, gen.Uniform, 16)
	cfg := Config{K: 3, T: 15, Objective: Median}
	par, err := Run(sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sequential loopback (tree.NewLocal's parallel = false, which the
	// repo benchmark still drives) runs the same handlers one after another.
	handlers := make([]transport.Handler, len(sites))
	for i, pts := range sites {
		if handlers[i], err = NewSiteHandlerOracle(cfg, i, pts, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := tree.NewLocal(context.Background(), transport.KindLoopback, handlers, false, tree.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	seq, err := RunOverCtx(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Report.UpBytes != seq.Report.UpBytes {
		t.Fatalf("parallel vs sequential bytes: %d vs %d", par.Report.UpBytes, seq.Report.UpBytes)
	}
	for i := range par.Centers {
		if !par.Centers[i].Equal(seq.Centers[i]) {
			t.Fatal("centers differ between modes")
		}
	}
}

func TestTZeroStillWorks(t *testing.T) {
	_, sites := plantedSites(t, 200, 3, 4, 0, gen.Uniform, 17)
	for _, obj := range []Objective{Median, Means, Center} {
		res, err := Run(sites, Config{K: 3, T: 0, Objective: obj})
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if len(res.Centers) == 0 {
			t.Fatalf("%v: no centers", obj)
		}
		for _, b := range res.SiteBudgets {
			if b != 0 {
				t.Fatalf("%v: nonzero budget with t=0", obj)
			}
		}
	}
}

func TestEvaluateHelpers(t *testing.T) {
	pts := []metric.Point{{0}, {1}, {10}}
	centers := []metric.Point{{0}}
	if got := Evaluate(pts, centers, 0, Median); math.Abs(got-11) > 1e-9 {
		t.Fatalf("median eval = %g", got)
	}
	if got := Evaluate(pts, centers, 1, Median); math.Abs(got-1) > 1e-9 {
		t.Fatalf("median eval t=1 = %g", got)
	}
	if got := Evaluate(pts, centers, 0, Means); math.Abs(got-101) > 1e-9 {
		t.Fatalf("means eval = %g", got)
	}
	if got := Evaluate(pts, centers, 1, Center); math.Abs(got-1) > 1e-9 {
		t.Fatalf("center eval = %g", got)
	}
	if got := Evaluate(pts, centers, 5, Center); got != 0 {
		t.Fatalf("center eval all dropped = %g", got)
	}
	if got := Evaluate(pts, nil, 1, Median); !math.IsInf(got, 1) {
		t.Fatalf("no centers should be inf, got %g", got)
	}
	if got := Evaluate(pts, nil, 3, Median); got != 0 {
		t.Fatalf("no centers, all dropped = %g", got)
	}
	flat := FlattenSites([][]metric.Point{{{1}}, {{2}, {3}}})
	if len(flat) != 3 {
		t.Fatal("flatten wrong")
	}
}

func TestStringers(t *testing.T) {
	if Median.String() != "median" || Means.String() != "means" || Center.String() != "center" {
		t.Fatal("objective strings")
	}
	if Objective(9).String() == "" {
		t.Fatal("unknown objective string empty")
	}
	if TwoRound.String() != "2round" || OneRound.String() != "1round" || TwoRoundNoOutliers.String() != "2round-noship" {
		t.Fatal("variant strings")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant string empty")
	}
}

// TestMemoPolicyAtTheSite: a site that builds its own oracle runs a
// low-dimensional shard raw and memoizes a higher-dimensional one
// (metric.Memoizes) whatever the engine options, while an oracle handed in
// explicitly is used as given whatever its dimension — and the answer is
// the same every way.
func TestMemoPolicyAtTheSite(t *testing.T) {
	low := gen.Mixture(gen.MixtureSpec{N: 120, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 3}).Pts
	high := gen.Mixture(gen.MixtureSpec{N: 120, K: 3, Dim: 8, OutlierFrac: 0.05, Seed: 3}).Pts
	for _, tc := range []struct {
		name string
		pts  []metric.Point
		eng  engine.Options
		raw  bool
	}{
		{"dim 2", low, engine.Options{}, true},
		{"dim 8", high, engine.Options{}, false},
		{"dim 8, LocalOpts.Reference", high, engine.Options{Reference: true}, false},
	} {
		cfg := Config{K: 3, T: 15, LocalOpts: kmedian.Options{Options: tc.eng}}.withDefaults()
		_, medianRaw := newMedianSite(cfg, 0, tc.pts, nil).Costs.(metric.SelfCosts).S.(*metric.Points)
		_, centerRaw := newCenterSite(cfg, tc.pts, nil, nil).space.(*metric.Points)
		if medianRaw != tc.raw || centerRaw != tc.raw {
			t.Errorf("%s: the median site's private oracle is raw = %v, the center site's %v; want %v", tc.name, medianRaw, centerRaw, tc.raw)
		}
	}

	_, sites := plantedSites(t, 300, 3, 3, 0.05, gen.Uniform, 18)
	for _, obj := range []Objective{Median, Means, Center} {
		want, err := Run(sites, Config{K: 3, T: 15, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []engine.Options{{}, {Reference: true}} {
			cfg := Config{K: 3, T: 15, Objective: obj, LocalOpts: kmedian.Options{Options: eng}}
			var st metric.CacheStats
			handlers := make([]transport.Handler, len(sites))
			for i, pts := range sites {
				dc := metric.NewDistCache(metric.NewPoints(pts))
				dc.Counters = &st
				if handlers[i], err = NewSiteHandlerOracle(cfg, i, pts, dc); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := tree.NewLocal(context.Background(), transport.KindLoopback, handlers, true, tree.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunOverCtx(context.Background(), tr, cfg)
			tr.Close()
			if err != nil {
				t.Fatal(err)
			}
			if hits, misses := st.Snapshot(); hits == 0 || misses == 0 {
				t.Fatalf("%v (%+v): the explicit dim-2 oracle saw %d hits and %d misses; it was not used", obj, eng, hits, misses)
			}
			if len(got.Centers) != len(want.Centers) || got.Report.UpBytes != want.Report.UpBytes {
				t.Fatalf("%v (%+v): explicit-oracle run differs from the raw run", obj, eng)
			}
			for i := range want.Centers {
				if !got.Centers[i].Equal(want.Centers[i]) {
					t.Fatalf("%v (%+v): explicit-oracle run moved center %d", obj, eng, i)
				}
			}
		}
	}
}
