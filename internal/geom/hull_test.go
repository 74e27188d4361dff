package geom

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func mustFn(t *testing.T, samples []Vertex) ConvexFn {
	t.Helper()
	f, err := NewConvexFn(samples)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewConvexFnErrors(t *testing.T) {
	if _, err := NewConvexFn(nil); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := NewConvexFn([]Vertex{{Q: 1, C: 2}}); err == nil {
		t.Error("missing Q=0 accepted")
	}
	if _, err := NewConvexFn([]Vertex{{Q: 0, C: -1}}); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := NewConvexFn([]Vertex{{Q: 0, C: 1}, {Q: -2, C: 1}}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestSingleVertex(t *testing.T) {
	f := mustFn(t, []Vertex{{Q: 0, C: 7}})
	if f.T() != 0 {
		t.Fatalf("T = %d", f.T())
	}
	if f.Eval(0) != 7 || f.Eval(5) != 7 {
		t.Fatal("Eval on degenerate fn")
	}
	if f.Slope(1) != 0 {
		t.Fatal("Slope beyond domain should be 0")
	}
	if len(f.Runs()) != 0 {
		t.Fatal("degenerate fn should have no runs")
	}
}

func TestHullKnownShape(t *testing.T) {
	// Costs 10, 6, 6, 1, 0 at budgets 0..4. Sample (2,6) lies above the
	// chord from (1,6) to (3,1) and is dropped; the rest are corners.
	f := mustFn(t, []Vertex{{0, 10}, {1, 6}, {2, 6}, {3, 1}, {4, 0}})
	v := f.Vertices()
	want := []Vertex{{0, 10}, {1, 6}, {3, 1}, {4, 0}}
	if len(v) != len(want) {
		t.Fatalf("hull = %v, want %v", v, want)
	}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("hull = %v, want %v", v, want)
		}
	}
	if got := f.Eval(2); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("Eval(2) = %g, want 3.5 (interpolated)", got)
	}
	if got := f.Slope(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("Slope(1) = %g, want 4", got)
	}
	if got := f.Slope(2); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Slope(2) = %g, want 2.5", got)
	}
	if got := f.Slope(4); math.Abs(got-1) > 1e-12 {
		t.Errorf("Slope(4) = %g, want 1", got)
	}
}

func TestClampNonIncreasing(t *testing.T) {
	// A cost that goes up with more outliers must be clamped down.
	f := mustFn(t, []Vertex{{0, 5}, {1, 9}, {2, 1}})
	if got := f.Eval(1); got > 5+1e-12 {
		t.Errorf("Eval(1) = %g, want <= 5 after clamp", got)
	}
}

func TestDuplicateBudgetsKeepCheapest(t *testing.T) {
	f := mustFn(t, []Vertex{{0, 5}, {2, 9}, {2, 3}, {2, 4}})
	if got := f.Eval(2); got != 3 {
		t.Errorf("Eval(2) = %g, want 3", got)
	}
}

// Property: the hull lower-bounds the samples, matches at hull vertices,
// is non-increasing, and has non-increasing slopes (convexity).
func TestHullPropertiesQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(12)
		qs := map[int]bool{0: true}
		for len(qs) < n {
			qs[rr.Intn(50)] = true
		}
		var samples []Vertex
		for q := range qs {
			samples = append(samples, Vertex{Q: q, C: float64(rr.Intn(1000))})
		}
		fn, err := NewConvexFn(samples)
		if err != nil {
			return false
		}
		// Clamped samples dominate the hull.
		sort.Slice(samples, func(i, j int) bool { return samples[i].Q < samples[j].Q })
		run := math.Inf(1)
		for _, s := range samples {
			if s.C < run {
				run = s.C
			}
			if fn.Eval(s.Q) > run+1e-9 {
				return false
			}
		}
		// Hull vertices are samples (post-clamp cost equals hull there).
		for _, v := range fn.Vertices() {
			if !fn.IsVertex(v.Q) {
				return false
			}
		}
		// Non-increasing values and slopes.
		for q := 1; q <= fn.T(); q++ {
			if fn.Eval(q) > fn.Eval(q-1)+1e-9 {
				return false
			}
			if fn.Slope(q) > fn.Slope(q-1)+1e-9 && q >= 2 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRunsCoverDomainExactly(t *testing.T) {
	f := mustFn(t, []Vertex{{0, 100}, {2, 40}, {5, 10}, {9, 0}})
	runs := f.Runs()
	q := 1
	for _, run := range runs {
		if run.Lo != q {
			t.Fatalf("run starts at %d, want %d", run.Lo, q)
		}
		if run.Hi < run.Lo {
			t.Fatalf("empty run %+v", run)
		}
		for x := run.Lo; x <= run.Hi; x++ {
			if math.Abs(f.Slope(x)-run.S) > 1e-9 {
				t.Fatalf("Slope(%d) = %g, run says %g", x, f.Slope(x), run.S)
			}
		}
		q = run.Hi + 1
	}
	if q != f.T()+1 {
		t.Fatalf("runs end at %d, want %d", q-1, f.T())
	}
	// Runs sorted by decreasing slope.
	for i := 1; i < len(runs); i++ {
		if runs[i].S > runs[i-1].S+1e-12 {
			t.Fatalf("runs not decreasing: %v", runs)
		}
	}
}

func TestNextPrevVertex(t *testing.T) {
	f := mustFn(t, []Vertex{{0, 100}, {4, 10}, {8, 0}})
	cases := []struct{ q, next, prev int }{
		{0, 0, 0}, {1, 4, 0}, {4, 4, 4}, {5, 8, 4}, {8, 8, 8}, {9, 8, 8},
	}
	for _, c := range cases {
		if got := f.NextVertex(c.q); got != c.next {
			t.Errorf("NextVertex(%d) = %d, want %d", c.q, got, c.next)
		}
		if got := f.PrevVertex(c.q); got != c.prev {
			t.Errorf("PrevVertex(%d) = %d, want %d", c.q, got, c.prev)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(100, 2)
	want := []int{0, 2, 4, 8, 16, 32, 64, 100}
	if len(g) != len(want) {
		t.Fatalf("Grid(100,2) = %v, want %v", g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("Grid(100,2) = %v, want %v", g, want)
		}
	}
	if g := Grid(0, 2); len(g) != 1 || g[0] != 0 {
		t.Fatalf("Grid(0,2) = %v", g)
	}
	if g := Grid(1, 2); len(g) != 2 || g[0] != 0 || g[1] != 1 {
		t.Fatalf("Grid(1,2) = %v", g)
	}
	// Bad base falls back to 2: {0, 2, 4, 8}.
	for _, base := range []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if g := Grid(8, base); len(g) != 4 || g[1] != 2 {
			t.Fatalf("Grid(8,%v) = %v", base, g)
		}
	}
	// A base whose first power is already past t: just the endpoints.
	if g := Grid(40, 1e300); len(g) != 2 || g[0] != 0 || g[1] != 40 {
		t.Fatalf("Grid(40,1e300) = %v", g)
	}
	// A base this close to 1 hits every integer up to t.
	if g := Grid(4096, math.Nextafter(1, 2)); len(g) != 4097 || g[4096] != 4096 {
		t.Fatalf("Grid(4096,1+ulp) has %d entries", len(g))
	}
	// Grid size is O(log t): for t = 1e6, base 2 -> ~21 entries.
	if g := Grid(1_000_000, 2); len(g) > 25 {
		t.Fatalf("Grid(1e6,2) has %d entries", len(g))
	}
	// Grid is sorted and contains 0 and t.
	g = Grid(37, 1.5)
	if g[0] != 0 || g[len(g)-1] != 37 {
		t.Fatalf("Grid(37,1.5) endpoints: %v", g)
	}
	if !sort.IntsAreSorted(g) {
		t.Fatalf("Grid not sorted: %v", g)
	}
}

// TestGridMatchesPowerWalk: the shortcuts Grid takes for bases next to 1
// return what walking the powers returns, on both sides of the threshold.
func TestGridMatchesPowerWalk(t *testing.T) {
	walk := func(top int, base float64) []int {
		set := map[int]bool{0: true, top: true}
		for x := base; int(x) <= top; x *= base {
			set[int(x)] = true
		}
		var grid []int
		for q := range set {
			grid = append(grid, q)
		}
		sort.Ints(grid)
		return grid
	}
	for _, n := range []int{1, 2, 3, 7, 40, 1000} {
		edge := 1 + 1/(float64(n)+1)
		for _, base := range []float64{1 + 0.5/(float64(n)+1), edge * (1 - 1e-12), edge, edge * (1 + 1e-12), 1 + 3/(float64(n)+1), 1.2, 2, 3.5} {
			want := walk(n, base)
			if got := Grid(n, base); !reflect.DeepEqual(got, want) {
				t.Fatalf("Grid(%d, %v) = %v, walking the powers gives %v", n, base, got, want)
			}
		}
	}
}
