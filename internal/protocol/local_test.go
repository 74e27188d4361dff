package protocol

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"dpc/internal/engine"
	"dpc/internal/geom"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// clusteredCosts is a means-hidim-shaped site in miniature: five Gaussian
// clusters and a few far outliers in dimension 8, squared costs on the raw
// oracle.
func clusteredCosts(n int) metric.Costs {
	rng := rand.New(rand.NewSource(17))
	pts := make([]metric.Point, n)
	for i := range pts {
		p := make(metric.Point, 8)
		scale, shift := 1.0, float64(i%5)*40
		if i%97 == 0 {
			scale, shift = 300, 0
		}
		for d := range p {
			p[d] = shift + rng.NormFloat64()*scale
		}
		pts[i] = p
	}
	return metric.Squared{C: metric.SelfCosts{S: metric.NewPoints(pts)}}
}

// poison overwrites everything under v that a solve could read back: every
// slice element up to capacity and every map entry gets NaN / MaxInt / -1 /
// true. Scalars directly in the top struct or its nested structs — the sizes
// the buffers are fitted to — are left alone (scalars false); inside a slice
// or map they are data. It walks kmedian.Scratch's unexported fields by
// reflection, so a buffer added there is poisoned without this test knowing
// its name.
func poison(v reflect.Value, scalars bool) {
	switch v.Kind() {
	case reflect.Float64:
		if scalars {
			v.SetFloat(math.NaN())
		}
	case reflect.Int:
		if scalars {
			v.SetInt(math.MaxInt)
		}
	case reflect.Int32:
		if scalars {
			v.SetInt(-1)
		}
	case reflect.Bool:
		if scalars {
			v.SetBool(true)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			poison(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), scalars)
		}
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			poison(full.Index(i), true)
		}
	case reflect.Map:
		if !v.IsNil() && v.Type().Key().Kind() == reflect.Int {
			elem := reflect.New(v.Type().Elem()).Elem()
			poison(elem, true)
			for key := 0; key < 64; key++ {
				v.SetMapIndex(reflect.ValueOf(key), elem)
			}
		}
	default:
		panic("poison: unhandled kind " + v.Kind().String())
	}
}

func sameBits(t *testing.T, label string, want, got kmedian.Solution) {
	t.Helper()
	if math.Float64bits(want.Cost) != math.Float64bits(got.Cost) || want.Budget != got.Budget {
		t.Fatalf("%s: cost %v budget %v, want %v %v", label, got.Cost, got.Budget, want.Cost, want.Budget)
	}
	if !reflect.DeepEqual(want.Centers, got.Centers) || !reflect.DeepEqual(want.Assign, got.Assign) {
		t.Fatalf("%s: centers %v, want %v (or assignments differ)", label, got.Centers, want.Centers)
	}
	for j := range want.DroppedWeight {
		if math.Float64bits(want.DroppedWeight[j]) != math.Float64bits(got.DroppedWeight[j]) {
			t.Fatalf("%s: dropped weight differs at client %d", label, j)
		}
	}
}

func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCurveScratchReuse holds the grid's shared scratch to its contract:
// Curve's loop — each solve warm-started from the last and run in the buffers
// the previous one left behind, poisoned here in between — gives bit for bit
// the solves made one by one with no scratch; a memoized solution survives
// every later solve and the poison; Curve itself returns those costs, keeps
// no scratch afterwards, and allocates less than two cold solves do (seven,
// before the scratch).
func TestCurveScratchReuse(t *testing.T) {
	const k2 = 10
	costs := clusteredCosts(700)
	grid := geom.Grid(42, 2)
	if len(grid) != 7 {
		t.Fatalf("grid %v: want 7 budgets", grid)
	}
	opts := kmedian.Options{Seed: 3, Options: engine.Options{Algo: engine.LocalSearch}}
	solve := func(q int, warm []int) kmedian.Solution {
		o := opts
		o.Warm = warm
		return kmedian.Solve(costs, nil, k2, float64(q), o)
	}
	want := make([]kmedian.Solution, len(grid))
	var warm []int
	for i, q := range grid {
		want[i] = solve(q, warm)
		warm = want[i].Centers
	}

	// Curve's loop by hand, so the scratch can be reached between solves.
	s := &BudgetSolver{Costs: costs, K: k2, Opts: opts}
	s.Opts.Scratch = new(kmedian.Scratch)
	for _, q := range grid {
		s.Opts.Warm = s.Solve(q).Centers
		poison(reflect.ValueOf(s.Opts.Scratch).Elem(), false)
	}
	for i, q := range grid {
		sameBits(t, "poisoned grid", want[i], s.Solve(q))
	}

	whole := &BudgetSolver{Costs: costs, K: k2, Opts: opts}
	var curve []float64
	grown := allocated(func() { curve = whole.Curve(grid) })
	for i := range grid {
		if math.Float64bits(curve[i]) != math.Float64bits(want[i].Cost) {
			t.Fatalf("Curve cost at budget %d: %v, want %v", grid[i], curve[i], want[i].Cost)
		}
	}
	if whole.Opts.Scratch != nil || whole.Opts.Warm != nil {
		t.Fatal("Curve left its scratch or warm start on the solver")
	}
	one := allocated(func() { solve(grid[0], nil) })
	if grown >= 2*one {
		t.Fatalf("Curve over %d budgets allocated %d bytes, one cold solve %d: the scratch is not reused", len(grid), grown, one)
	}
	t.Logf("Curve over %d budgets: %d bytes; one cold solve: %d", len(grid), grown, one)
}
