package metric

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// countingSpace wraps a space and counts underlying Dist computations.
type countingSpace struct {
	p     Space
	calls int64
}

func (c *countingSpace) N() int { return c.p.N() }
func (c *countingSpace) Dist(i, j int) float64 {
	atomic.AddInt64(&c.calls, 1)
	return c.p.Dist(i, j)
}

func randPoints(rng *rand.Rand, n, dim int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

// TestDistCacheExact is the core property: cached Dist(i,j) is bit-identical
// to the direct computation, for every pair, in both argument orders.
func TestDistCacheExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []Metric{EuclideanL2, ManhattanL1, ChebyshevLinf} {
		pts := randPoints(rng, 60, 3)
		direct := &Points{Pts: pts, M: m}
		dc := NewDistCache(&Points{Pts: pts, M: m})
		for i := 0; i < len(pts); i++ {
			for j := 0; j < len(pts); j++ {
				want := direct.Dist(i, j)
				if got := dc.Dist(i, j); got != want {
					t.Fatalf("%v: Dist(%d,%d) = %v, direct = %v", m, i, j, got, want)
				}
				// Second read must serve the memoized value, still exact.
				if got := dc.Dist(i, j); got != want {
					t.Fatalf("%v: second Dist(%d,%d) = %v, direct = %v", m, i, j, got, want)
				}
			}
		}
	}
}

func TestDistCacheSymmetryAndDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 40, 2)
	dc := NewDistCache(NewPoints(pts))
	for i := 0; i < 40; i++ {
		if d := dc.Dist(i, i); d != 0 {
			t.Fatalf("Dist(%d,%d) = %v, want 0", i, i, d)
		}
		for j := i + 1; j < 40; j++ {
			if dc.Dist(i, j) != dc.Dist(j, i) {
				t.Fatalf("asymmetric cache at (%d,%d)", i, j)
			}
		}
	}
	if err := CheckMetric(dc); err != nil {
		t.Fatal(err)
	}
}

func TestDistCacheMemoizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cs := &countingSpace{p: NewPoints(randPoints(rng, 50, 2))}
	dc := NewDistCache(cs)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 50; i++ {
			for j := 0; j < 50; j++ {
				dc.Dist(i, j)
			}
		}
	}
	want := int64(50 * 49 / 2)
	if cs.calls != want {
		t.Fatalf("underlying computations = %d, want %d (one per pair)", cs.calls, want)
	}
	if got := dc.Filled(); got != int(want) {
		t.Fatalf("Filled() = %d, want %d", got, want)
	}
}

// TestDistCacheConcurrentReaders hammers the cache from many goroutines,
// including concurrent first touches of the same cells; run under -race in
// CI. Every observed value must equal the direct computation.
func TestDistCacheConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 120, 3)
	direct := NewPoints(pts)
	dc := NewDistCache(NewPoints(pts))
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 20000; it++ {
				i, j := r.Intn(120), r.Intn(120)
				if got, want := dc.Dist(i, j), direct.Dist(i, j); got != want {
					select {
					case errc <- &mismatchError{i, j, got, want}:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

type mismatchError struct {
	i, j      int
	got, want float64
}

func (e *mismatchError) Error() string { return "cache mismatch" }

func TestDistCachePrefill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cs := &countingSpace{p: NewPoints(randPoints(rng, 80, 2))}
	dc := NewDistCache(cs)
	dc.Prefill(4)
	if got, want := dc.Filled(), 80*79/2; got != want {
		t.Fatalf("Filled after Prefill = %d, want %d", got, want)
	}
	calls := cs.calls
	for i := 0; i < 80; i++ {
		for j := 0; j < 80; j++ {
			dc.Dist(i, j)
		}
	}
	if cs.calls != calls {
		t.Fatalf("Dist computed %d extra times after Prefill", cs.calls-calls)
	}
}

func TestCacheSpaceLimit(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(12)), 10, 8)
	if _, ok := CacheSpace(NewPoints(pts)).(*DistCache); !ok {
		t.Fatal("small space not cached")
	}
	big := &hugeSpace{n: MaxCachePoints + 1}
	if _, ok := CacheSpace(big).(*hugeSpace); !ok {
		t.Fatal("oversized space was cached")
	}
}

// TestMemoizes is the memoization policy as a table: size x dimension x
// metric for point sets, and every non-point space up to the size cap.
func TestMemoizes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		n, dim int
		want   bool
	}{
		{10, 1, false}, {10, 2, false}, {250, 2, false}, {10, 4, false}, {MaxCachePoints, 4, false},
		{10, 5, true}, {250, 8, true}, {2, 16, true}, {MaxCachePoints, 5, true},
		{MaxCachePoints + 1, 5, false}, {MaxCachePoints + 1, 2, false},
		{0, 0, false},
	} {
		for _, m := range []Metric{EuclideanL2, ManhattanL1, ChebyshevLinf} {
			p := &Points{Pts: randPoints(rng, tc.n, tc.dim), M: m}
			if got := Memoizes(p); got != tc.want {
				t.Errorf("Memoizes(%d points, dim %d, %s) = %v, want %v", tc.n, tc.dim, m, got, tc.want)
			}
			_, cached := CacheSpace(p).(*DistCache)
			if cached != tc.want {
				t.Errorf("CacheSpace(%d points, dim %d, %s) memoized = %v, want %v", tc.n, tc.dim, m, cached, tc.want)
			}
		}
	}
	// The dimension rule prices the built-in point metrics only: any other
	// space is memoized up to the size cap, as before.
	low := randPoints(rng, 12, 2)
	for name, s := range map[string]Space{
		"matrix":   spaceMatrix(NewPoints(low)),
		"angular":  &AngularSpace{Pts: low},
		"counting": &countingSpace{p: NewPoints(low)},
		"opaque":   &hugeSpace{n: 64},
	} {
		if !Memoizes(s) {
			t.Errorf("Memoizes(%s) = false", name)
		}
		if _, cached := CacheSpace(s).(*DistCache); !cached {
			t.Errorf("CacheSpace(%s) did not memoize", name)
		}
	}
	// An explicitly built memo is never second-guessed.
	if dc := NewDistCache(NewPoints(low)); dc.N() != len(low) || dc.Dist(0, 1) != L2(low[0], low[1]) {
		t.Fatal("NewDistCache over a low-dimensional point set is not a working memo")
	}
}

type hugeSpace struct{ n int }

func (h *hugeSpace) N() int                { return h.n }
func (h *hugeSpace) Dist(i, j int) float64 { return math.Abs(float64(i - j)) }
func (h *hugeSpace) Clients() int          { return h.n }
func (h *hugeSpace) Facilities() int       { return h.n }
func (h *hugeSpace) Cost(c, f int) float64 { return h.Dist(c, f) }

// asymCosts is an asymmetric oracle (like the compressed graph's
// Cost(i,f) = Ell[i] + d(y_i, y_f)).
type asymCosts struct {
	base  *Points
	shift []float64
	calls int64
}

func (a *asymCosts) Clients() int    { return a.base.N() }
func (a *asymCosts) Facilities() int { return a.base.N() }
func (a *asymCosts) Cost(c, f int) float64 {
	atomic.AddInt64(&a.calls, 1)
	return a.shift[c] + a.base.Dist(c, f)
}

func TestCostCacheExactAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 35, 2)
	shift := make([]float64, 35)
	for i := range shift {
		shift[i] = rng.Float64() * 5
	}
	direct := &asymCosts{base: NewPoints(pts), shift: shift}
	cached := NewCostCache(&asymCosts{base: NewPoints(pts), shift: shift})
	for c := 0; c < 35; c++ {
		for f := 0; f < 35; f++ {
			want := direct.Cost(c, f)
			if got := cached.Cost(c, f); got != want {
				t.Fatalf("Cost(%d,%d) = %v, want %v", c, f, got, want)
			}
			if got := cached.Cost(c, f); got != want {
				t.Fatalf("memoized Cost(%d,%d) = %v, want %v", c, f, got, want)
			}
		}
	}
	inner := cached.C.(*asymCosts)
	if inner.calls != 35*35 {
		t.Fatalf("underlying calls = %d, want %d", inner.calls, 35*35)
	}
}

func TestCostCacheConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 90, 2)
	shift := make([]float64, 90)
	for i := range shift {
		shift[i] = rng.Float64()
	}
	direct := &asymCosts{base: NewPoints(pts), shift: shift}
	cached := NewCostCache(&asymCosts{base: NewPoints(pts), shift: shift})
	var wg sync.WaitGroup
	var bad int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for it := 0; it < 20000; it++ {
				c, f := r.Intn(90), r.Intn(90)
				if cached.Cost(c, f) != direct.Cost(c, f) {
					atomic.AddInt64(&bad, 1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if bad != 0 {
		t.Fatal("concurrent CostCache reads diverged from direct computation")
	}
}

// FuzzDistCache cross-checks cached against direct distances on fuzzed
// coordinates and indices, in both argument orders.
func FuzzDistCache(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2), uint8(4))
	f.Add(int64(42), uint8(30), uint8(29), uint8(0))
	f.Add(int64(-7), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, i, j uint8) {
		if n < 2 {
			n = 2
		}
		nn := int(n)
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, nn, 1+int(n)%4)
		direct := NewPoints(pts)
		dc := NewDistCache(NewPoints(pts))
		ii, jj := int(i)%nn, int(j)%nn
		if got, want := dc.Dist(ii, jj), direct.Dist(ii, jj); got != want {
			t.Fatalf("Dist(%d,%d) = %v, want %v", ii, jj, got, want)
		}
		if got, want := dc.Dist(jj, ii), direct.Dist(jj, ii); got != want {
			t.Fatalf("Dist(%d,%d) = %v, want %v", jj, ii, got, want)
		}
		if dc.Dist(ii, jj) != dc.Dist(jj, ii) {
			t.Fatalf("cache asymmetric at (%d,%d)", ii, jj)
		}
	})
}

// TestPrefillCtxAbortsAndReports checks the warmup contract: a cancelled
// context or a false keep-probe stops the fill early, and the progress
// counter tracks exactly the cells computed.
func TestPrefillCtxAbortsAndReports(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(5)), 64, 2)
	dc := NewDistCache(NewPoints(pts))
	var progress atomic.Int64
	filled := dc.PrefillCtx(context.Background(), 4, nil, &progress)
	if want := 64 * 63 / 2; filled != want || int(progress.Load()) != want {
		t.Fatalf("full prefill filled %d cells, progress %d, want %d", filled, progress.Load(), want)
	}

	dc2 := NewDistCache(NewPoints(pts))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if n := dc2.PrefillCtx(canceled, 1, nil, nil); n != 0 {
		t.Fatalf("cancelled prefill computed %d cells", n)
	}
	if n := dc2.PrefillCtx(context.Background(), 1, func() bool { return false }, nil); n != 0 {
		t.Fatalf("keep=false prefill computed %d cells", n)
	}
	if dc2.Filled() != 0 {
		t.Fatalf("aborted prefills left %d filled cells", dc2.Filled())
	}
}
