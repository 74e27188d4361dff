package kmedian

import (
	"math"
	"math/rand"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/exact"
	"dpc/internal/metric"
)

func line(xs ...float64) *metric.Points {
	pts := make([]metric.Point, len(xs))
	for i, x := range xs {
		pts[i] = metric.Point{x}
	}
	return metric.NewPoints(pts)
}

func randPoints(r *rand.Rand, n, dim int, scale float64) *metric.Points {
	pts := make([]metric.Point, n)
	for i := range pts {
		p := make(metric.Point, dim)
		for d := range p {
			p[d] = r.Float64() * scale
		}
		pts[i] = p
	}
	return metric.NewPoints(pts)
}

func TestEvalBasics(t *testing.T) {
	sp := line(0, 1, 2, 100)
	sol := Eval(sp, nil, []int{1}, 0)
	if math.Abs(sol.Cost-(1+0+1+99)) > 1e-12 {
		t.Fatalf("cost = %g, want 101", sol.Cost)
	}
	sol = Eval(sp, nil, []int{1}, 1)
	if math.Abs(sol.Cost-2) > 1e-12 {
		t.Fatalf("cost = %g, want 2", sol.Cost)
	}
	if got := sol.Outliers(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("outliers = %v, want [3]", got)
	}
	if sol.Assign[0] != 1 {
		t.Fatalf("assign = %v", sol.Assign)
	}
	if EvalSum(sp, nil, []int{1}, 1) != sol.Cost {
		t.Fatal("EvalSum disagrees with Eval")
	}
}

func TestEvalWeightedFractionalDrop(t *testing.T) {
	m := metric.Matrix{{0, 10}, {10, 0}}
	w := []float64{1, 4}
	// Center 0; t = 1.5 drops 1.5 units of the weight-4 client at cost 10.
	sol := Eval(m, w, []int{0}, 1.5)
	if math.Abs(sol.Cost-25) > 1e-12 {
		t.Fatalf("cost = %g, want 25", sol.Cost)
	}
	if math.Abs(sol.DroppedWeight[1]-1.5) > 1e-12 {
		t.Fatalf("dropped = %v", sol.DroppedWeight)
	}
}

func TestEvalNoCenters(t *testing.T) {
	sp := line(0, 1)
	if got := EvalSum(sp, nil, nil, 5); got != 0 {
		t.Fatalf("t>=n no centers should cost 0, got %g", got)
	}
	if got := EvalSum(sp, nil, nil, 1); !math.IsInf(got, 1) {
		t.Fatalf("t<n no centers should be +Inf, got %g", got)
	}
	sol := Eval(sp, nil, nil, 5)
	if sol.DroppedWeight[0] != 1 || sol.DroppedWeight[1] != 1 {
		t.Fatal("all weight should be dropped")
	}
}

func TestLocalSearchSeparatedClusters(t *testing.T) {
	// Two clusters + far outlier; k=2 t=1 should find near-zero cost.
	sp := line(0, 0.1, 0.2, 50, 50.1, 50.2, 1000)
	sol := LocalSearch(sp, nil, 2, 1, Options{Seed: 1})
	if sol.Cost > 1 {
		t.Fatalf("cost = %g, want small", sol.Cost)
	}
	if len(sol.Centers) != 2 {
		t.Fatalf("centers = %v", sol.Centers)
	}
	if got := sol.Outliers(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("outliers = %v, want [6]", got)
	}
}

func TestLocalSearchNearOptimalOnSmall(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	worst := 1.0
	for trial := 0; trial < 20; trial++ {
		sp := randPoints(r, 12, 2, 10)
		k := 1 + r.Intn(3)
		tt := float64(r.Intn(3))
		sol := LocalSearch(sp, nil, k, tt, Options{Seed: int64(trial), Restarts: 3})
		opt := exact.Solve(sp, nil, k, tt, exact.Sum)
		if opt.Cost == 0 {
			if sol.Cost > 1e-9 {
				t.Fatalf("trial %d: opt 0 but got %g", trial, sol.Cost)
			}
			continue
		}
		ratio := sol.Cost / opt.Cost
		if ratio > worst {
			worst = ratio
		}
		if ratio > 3.0 {
			t.Fatalf("trial %d (k=%d,t=%g): local search ratio %.3f too large (%g vs %g)",
				trial, k, tt, ratio, sol.Cost, opt.Cost)
		}
	}
	t.Logf("worst local-search ratio over 20 small instances: %.3f", worst)
}

func TestLocalSearchDeterministicGivenSeed(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sp := randPoints(r, 60, 3, 100)
	a := LocalSearch(sp, nil, 4, 3, Options{Seed: 42})
	b := LocalSearch(sp, nil, 4, 3, Options{Seed: 42})
	if a.Cost != b.Cost {
		t.Fatalf("non-deterministic: %g vs %g", a.Cost, b.Cost)
	}
	if len(a.Centers) != len(b.Centers) {
		t.Fatal("center sets differ")
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatal("center sets differ")
		}
	}
}

func TestLocalSearchDegenerate(t *testing.T) {
	sp := line(0, 1)
	if sol := LocalSearch(sp, nil, 0, 0, Options{}); !math.IsInf(sol.Cost, 1) {
		t.Fatal("k=0, t<n should be infeasible")
	}
	if sol := LocalSearch(sp, nil, 1, 5, Options{}); sol.Cost != 0 {
		t.Fatal("t>=n should cost 0")
	}
	empty := metric.NewPoints(nil)
	if sol := LocalSearch(empty, nil, 1, 0, Options{}); sol.Cost != 0 {
		t.Fatal("empty instance should cost 0")
	}
	// k larger than facility count.
	if sol := LocalSearch(sp, nil, 5, 0, Options{}); sol.Cost > 1e-12 {
		t.Fatalf("k>=n should cost 0, got %g", sol.Cost)
	}
}

func TestLocalSearchWeightedMatchesUnitExpansion(t *testing.T) {
	// A weighted instance must behave like its unit-weight expansion.
	r := rand.New(rand.NewSource(12))
	base := randPoints(r, 8, 2, 10)
	wts := make([]float64, 8)
	var expanded []metric.Point
	for i := range wts {
		wts[i] = float64(1 + r.Intn(3))
		for c := 0; c < int(wts[i]); c++ {
			expanded = append(expanded, base.Pts[i])
		}
	}
	expSp := metric.NewPoints(expanded)
	for k := 1; k <= 2; k++ {
		for tt := 0; tt <= 2; tt++ {
			wOpt := exact.Solve(base, wts, k, float64(tt), exact.Sum)
			uOpt := exact.Solve(expSp, nil, k, float64(tt), exact.Sum)
			if math.Abs(wOpt.Cost-uOpt.Cost) > 1e-9*(1+uOpt.Cost) {
				t.Fatalf("weighted exact %g != unit expansion exact %g (k=%d t=%d)",
					wOpt.Cost, uOpt.Cost, k, tt)
			}
			sol := LocalSearch(base, wts, k, float64(tt), Options{Seed: 5, Restarts: 3})
			if sol.Cost < wOpt.Cost-1e-9 {
				t.Fatalf("local search beat the exact optimum: %g < %g", sol.Cost, wOpt.Cost)
			}
		}
	}
}

func TestJVFindsClusters(t *testing.T) {
	sp := line(0, 0.5, 1, 100, 100.5, 101, 5000)
	sol := JV(sp, nil, 2, 1, 0, Options{})
	if len(sol.Centers) > 2 {
		t.Fatalf("too many centers: %v", sol.Centers)
	}
	if sol.Cost > 2.1 {
		t.Fatalf("cost = %g, want ~2 (outlier dropped)", sol.Cost)
	}
}

func TestJVApproximationOnSmallInstances(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	worst := 1.0
	for trial := 0; trial < 15; trial++ {
		sp := randPoints(r, 11, 2, 10)
		k := 1 + r.Intn(3)
		tt := float64(r.Intn(3))
		sol := JV(sp, nil, k, tt, 0, Options{})
		if len(sol.Centers) > k {
			t.Fatalf("trial %d: %d centers > k=%d", trial, len(sol.Centers), k)
		}
		opt := exact.Solve(sp, nil, k, tt, exact.Sum)
		if opt.Cost == 0 {
			continue
		}
		ratio := sol.Cost / opt.Cost
		if ratio > worst {
			worst = ratio
		}
		if ratio > 6.0 {
			t.Fatalf("trial %d (k=%d,t=%g): JV ratio %.3f (%g vs %g)",
				trial, k, tt, ratio, sol.Cost, opt.Cost)
		}
	}
	t.Logf("worst JV ratio over 15 small instances: %.3f", worst)
}

func TestJVWeighted(t *testing.T) {
	m := metric.Matrix{
		{0, 1, 40},
		{1, 0, 40},
		{40, 40, 0},
	}
	w := []float64{5, 5, 1}
	sol := JV(m, w, 1, 1, 0, Options{})
	if len(sol.Centers) != 1 {
		t.Fatalf("centers = %v", sol.Centers)
	}
	// Best: center 0 or 1, drop the far light client: cost 5.
	if math.Abs(sol.Cost-5) > 1e-9 {
		t.Fatalf("cost = %g, want 5", sol.Cost)
	}
}

func TestJVDegenerate(t *testing.T) {
	sp := line(0, 1)
	if sol := JV(sp, nil, 1, 5, 0, Options{}); sol.Cost != 0 {
		t.Fatal("t >= n should cost 0")
	}
	if sol := JV(sp, nil, 3, 0, 0, Options{}); sol.Cost != 0 {
		t.Fatal("k >= n should cost 0")
	}
	empty := metric.NewPoints(nil)
	if sol := JV(empty, nil, 1, 0, 0, Options{}); sol.Cost != 0 {
		t.Fatal("empty should cost 0")
	}
}

func TestBicriteriaRelaxModes(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	sp := randPoints(r, 40, 2, 100)
	k, tt, eps := 3, 2.0, 1.0
	for _, algo := range []engine.Algo{engine.LocalSearch, engine.JV, engine.Auto} {
		opts := Options{Seed: 1, Options: engine.Options{Algo: algo}}
		so := Bicriteria(sp, nil, k, tt, eps, RelaxOutliers, opts)
		if len(so.Centers) > k {
			t.Fatalf("%v RelaxOutliers: %d centers > k", algo, len(so.Centers))
		}
		if so.Budget > tt*(1+eps)+1e-9 {
			t.Fatalf("%v RelaxOutliers: budget %g > (1+eps)t", algo, so.Budget)
		}
		sc := Bicriteria(sp, nil, k, tt, eps, RelaxCenters, opts)
		if len(sc.Centers) > int(math.Ceil(float64(k)*(1+eps))) {
			t.Fatalf("%v RelaxCenters: %d centers", algo, len(sc.Centers))
		}
		if sc.Budget > tt+1e-9 {
			t.Fatalf("%v RelaxCenters: budget %g > t", algo, sc.Budget)
		}
	}
}

// Theorem 3.1 quality shape: the (k,(1+eps)t) solution should not be worse
// than O(1/eps) * OPT(k, t). We verify a generous constant on small cases.
func TestBicriteriaQuality(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		sp := randPoints(r, 12, 2, 10)
		k, tt := 2, 2.0
		opt := exact.Solve(sp, nil, k, tt, exact.Sum)
		for _, eps := range []float64{0.5, 1, 2} {
			sol := Bicriteria(sp, nil, k, tt, eps, RelaxOutliers, Options{Seed: int64(trial)})
			bound := math.Max(6, 6/eps) * opt.Cost
			if opt.Cost > 0 && sol.Cost > bound+1e-9 {
				t.Fatalf("trial %d eps=%g: cost %g > %g (opt %g)", trial, eps, sol.Cost, bound, opt.Cost)
			}
		}
	}
}

func TestMeansViaSquaredCosts(t *testing.T) {
	sp := line(0, 1, 2, 30, 31, 32, 500)
	sq := metric.Squared{C: sp}
	sol := LocalSearch(sq, nil, 2, 1, Options{Seed: 2, Restarts: 2})
	// Clusters {0,1,2} and {30,31,32} with centers at the middles: cost
	// 1+0+1 + 1+0+1 = 4 (squared); outlier 500 dropped.
	if sol.Cost > 6 {
		t.Fatalf("means cost = %g, want <= 6", sol.Cost)
	}
	if got := sol.Outliers(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("outliers = %v", got)
	}
}
