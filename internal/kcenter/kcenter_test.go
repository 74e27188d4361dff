package kcenter

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpc/internal/exact"
	"dpc/internal/metric"
)

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

func TestGonzalezLine(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {1}, {2}, {10}})
	tr := Gonzalez(sp, 4, 0)
	if len(tr.Order) != 4 {
		t.Fatalf("order = %v", tr.Order)
	}
	if tr.Order[0] != 0 || tr.Order[1] != 3 {
		t.Fatalf("first two selections = %v, want [0 3 ...]", tr.Order[:2])
	}
	if !math.IsInf(tr.Radii[0], 1) {
		t.Fatal("Radii[0] should be +Inf")
	}
	if tr.Radii[1] != 10 {
		t.Fatalf("Radii[1] = %g, want 10", tr.Radii[1])
	}
	// Insertion radii are non-increasing after index 0.
	for r := 2; r < len(tr.Radii); r++ {
		if tr.Radii[r] > tr.Radii[r-1]+1e-12 {
			t.Fatalf("radii not non-increasing: %v", tr.Radii)
		}
	}
}

func TestGonzalezDegenerate(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}})
	tr := Gonzalez(sp, 5, 0)
	if len(tr.Order) != 1 {
		t.Fatalf("order = %v", tr.Order)
	}
	if tr := Gonzalez(sp, 0, 0); len(tr.Order) != 0 {
		t.Fatal("m=0 should give empty traversal")
	}
	if tr := Gonzalez(sp, 1, 7); len(tr.Order) != 0 {
		t.Fatal("out-of-range first should give empty traversal")
	}
}

// Gonzalez's guarantee: the first k points are a 2-approximation for
// k-center, i.e. assignment radius <= 2 * OPT_k. We verify against exact.
func TestGonzalezTwoApprox(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		sp := randPoints(r, 10, 2, 100)
		for k := 1; k <= 3; k++ {
			tr := Gonzalez(sp, k, 0)
			_, _, radius := tr.AssignPrefix(sp, k, nil)
			opt := exact.Solve(sp, nil, k, 0, exact.Max)
			if radius > 2*opt.Cost+1e-9 {
				t.Fatalf("trial %d k=%d: Gonzalez radius %g > 2*opt %g", trial, k, radius, opt.Cost)
			}
		}
	}
}

// The witness property used by Algorithm 2: Radii[r] <= 2 * OPT_{r-1}
// (selecting r points with pairwise distance >= Radii[r] forces any
// (r-1)-center solution to have radius >= Radii[r]/2).
func TestGonzalezRadiiAreWitnesses(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		sp := randPoints(r, 9, 2, 50)
		tr := Gonzalez(sp, 5, 0)
		for rr := 2; rr < 5; rr++ {
			opt := exact.Solve(sp, nil, rr-1, 0, exact.Max)
			if tr.Radii[rr] > 2*opt.Cost+1e-9 {
				t.Fatalf("witness violated: Radii[%d]=%g > 2*opt_(k=%d)=%g",
					rr, tr.Radii[rr], rr-1, opt.Cost)
			}
		}
	}
}

func TestAssignPrefixCounts(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {0.1}, {10}, {10.1}, {10.2}})
	tr := Gonzalez(sp, 2, 0)
	assign, counts, maxDist := tr.AssignPrefix(sp, 2, nil)
	if len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[0]+counts[1] != 5 {
		t.Fatalf("counts don't sum to n: %v", counts)
	}
	if maxDist > 0.21 {
		t.Fatalf("maxDist = %g", maxDist)
	}
	// Weighted variant.
	_, wc, _ := tr.AssignPrefix(sp, 2, []float64{2, 2, 1, 1, 1})
	if wc[0]+wc[1] != 7 {
		t.Fatalf("weighted counts = %v", wc)
	}
	_ = assign
}

// slopeSuffixArray is SlopeSuffix as it was written with a t+2 suffix
// array: the formula the running-sum version must match bit for bit.
func slopeSuffixArray(tr Traversal, k int, grid []int) []float64 {
	tmax := grid[len(grid)-1]
	suffix := make([]float64, tmax+2)
	for q := tmax; q >= 1; q-- {
		suffix[q] = suffix[q+1]
		if idx := k + q - 1; idx < len(tr.Order) {
			suffix[q] += tr.Radii[idx]
		}
	}
	out := make([]float64, len(grid))
	for i, q := range grid {
		out[i] = suffix[q+1]
	}
	return out
}

// TestSlopeSuffixMatchesSuffixArray pins SlopeSuffix against the suffix-array
// formula on random radii of mixed magnitudes (so the sums round) and random
// ascending grids: duplicates, grid[0] = 0 or not, a single entry, and
// budgets past the end of the traversal.
func TestSlopeSuffixMatchesSuffixArray(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(30)
		tr := Traversal{Order: make([]int, n), Radii: make([]float64, n)}
		for i := range tr.Radii {
			tr.Radii[i] = r.Float64() * math.Pow(10, float64(r.Intn(12)-6))
		}
		if n > 0 {
			tr.Radii[0] = math.Inf(1)
		}
		k := r.Intn(6)
		grid := make([]int, 1+r.Intn(8))
		q := r.Intn(2) * r.Intn(4)
		for i := range grid {
			grid[i] = q
			if r.Intn(3) > 0 {
				q += r.Intn(9)
			}
		}
		got, want := tr.SlopeSuffix(k, grid), slopeSuffixArray(tr, k, grid)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: n=%d k=%d grid=%v: SlopeSuffix = %v, want %v", trial, n, k, grid, got, want)
			}
		}
	}
}

func TestPartialDropsOutliers(t *testing.T) {
	// Two tight clusters plus two far outliers; k=2, t=2 should give a tiny
	// radius.
	pts := []metric.Point{{0}, {0.5}, {1}, {20}, {20.5}, {21}, {500}, {-400}}
	sp := metric.NewPoints(pts)
	sol := Partial(sp, nil, 2, 2)
	if sol.Radius > 1+1e-9 {
		t.Fatalf("radius = %g, want <= 1", sol.Radius)
	}
	// Without outliers the radius explodes.
	sol0 := Partial(sp, nil, 2, 0)
	if sol0.Radius < 100 {
		t.Fatalf("no-outlier radius = %g, want large", sol0.Radius)
	}
}

// 3-approximation of the greedy against exact optima on random instances.
func TestPartialThreeApprox(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		sp := randPoints(r, 9, 2, 100)
		k := 1 + r.Intn(2)
		tt := float64(r.Intn(3))
		sol := Partial(sp, nil, k, tt)
		opt := exact.Solve(sp, nil, k, tt, exact.Max)
		if sol.Radius > 3*opt.Cost+1e-9 {
			t.Fatalf("trial %d (k=%d t=%g): Partial radius %g > 3*opt %g",
				trial, k, tt, sol.Radius, opt.Cost)
		}
	}
}

func TestPartialWeighted(t *testing.T) {
	// Aggregated precluster centers: heavy points must not be discarded.
	m := metric.Matrix{
		{0, 1, 50},
		{1, 0, 50},
		{50, 50, 0},
	}
	w := []float64{5, 5, 1}
	sol := Partial(m, w, 1, 1)
	// Discard the light far point; centers 0 or 1 give radius 1.
	if sol.Radius > 1+1e-9 {
		t.Fatalf("radius = %g, want <= 1", sol.Radius)
	}
	// t=0.5 cannot discard the far client.
	sol = Partial(m, w, 1, 0.5)
	if sol.Radius < 49 {
		t.Fatalf("radius = %g, want >= 49", sol.Radius)
	}
}

func TestPartialDegenerate(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {1}})
	if s := Partial(sp, nil, 0, 0); len(s.Centers) != 0 {
		t.Fatal("k=0 should give empty solution")
	}
	if s := Partial(sp, nil, 1, 5); s.Radius != 0 {
		t.Fatalf("t >= n should give radius 0, got %g", s.Radius)
	}
	empty := metric.NewPoints(nil)
	if s := Partial(empty, nil, 1, 0); s.Radius != 0 {
		t.Fatal("empty instance should give zero solution")
	}
}

func TestEvalMax(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {3}, {7}})
	if got := EvalMax(sp, nil, []int{0}, 0); got != 7 {
		t.Fatalf("EvalMax t=0 = %g", got)
	}
	if got := EvalMax(sp, nil, []int{0}, 1); got != 3 {
		t.Fatalf("EvalMax t=1 = %g", got)
	}
	if got := EvalMax(sp, nil, []int{0}, 3); got != 0 {
		t.Fatalf("EvalMax t=3 = %g", got)
	}
	// Weighted: client of weight 2 at distance 7 survives t=1.
	if got := EvalMax(sp, []float64{1, 1, 2}, []int{0}, 1); got != 7 {
		t.Fatalf("weighted EvalMax = %g", got)
	}
}

// TestPairSortMatchesSortSlice pins EvalMaxOpt's sort swap, which
// ballIndex.evalMax shares: slices.SortFunc under farthestFirst makes
// exactly the permutation sort.Slice made with less ds[a].d > ds[b].d, on
// pairs whose costs are heavy ties, ±0, +Inf and NaN (one or several), at
// sizes on both sides of pdqsort's insertion-sort cutoff. Each pair's
// weight is its starting index, so the whole permutation, not just the cost
// sequence, is compared.
func TestPairSortMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	pool := []float64{0, math.Copysign(0, -1), 1, 2, 0.25, math.Inf(1), math.NaN()}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(300)
		want := make([]cd, n)
		for i := range want {
			d := pool[r.Intn(len(pool)-1)] // no NaN
			switch {
			case trial%4 == 0:
				d = float64(r.Intn(n/8 + 1)) // wide ties, no specials
			case trial%5 == 1:
				d = pool[r.Intn(len(pool))] // NaN among them
			}
			want[i] = cd{d: d, w: float64(i)}
		}
		if trial%10 == 3 {
			want[r.Intn(n)].d = math.NaN()
		}
		got := slices.Clone(want)
		sort.Slice(want, func(a, b int) bool { return want[a].d > want[b].d })
		slices.SortFunc(got, farthestFirst)
		for i := range got {
			if math.Float64bits(got[i].d) != math.Float64bits(want[i].d) || got[i].w != want[i].w {
				t.Fatalf("trial %d: farthestFirst puts pair %v at %d, sort.Slice pair %v", trial, got[i], i, want[i])
			}
		}
	}
}
