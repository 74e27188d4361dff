package core

import (
	"math"
	"testing"

	"dpc/internal/dataio"
	"dpc/internal/exact"
	"dpc/internal/metric"
	"dpc/internal/uncertain"
)

// TestEvaluateHostileBudget feeds every evaluator of unit points the
// budgets a hostile Eps used to produce (a float budget cast to int
// panicked on the negative and the huge ones): below zero, zero, the point
// count, past it and +Inf. A budget below 1 drops nothing, one of at least
// n drops everything, and nothing panics. Every cost is an integer, so the
// sums below are exact in any order.
func TestEvaluateHostileBudget(t *testing.T) {
	xs := []float64{0, 1, 3, 7, 12, 20}
	pts := make([]metric.Point, len(xs))
	g := &uncertain.Ground{Pts: make([]metric.Point, len(xs))}
	nodes := make([]uncertain.Node, len(xs))
	for j, x := range xs {
		pts[j], g.Pts[j] = metric.Point{x}, metric.Point{x}
		nodes[j] = uncertain.Node{Support: []int{j}, Prob: []float64{1}}
	}
	centers := []metric.Point{{0}, {10}}
	var sum, sq, radius float64
	for _, x := range xs {
		d := math.Min(math.Abs(x), math.Abs(x-10))
		sum, sq, radius = sum+d, sq+d*d, math.Max(radius, d)
	}
	for _, b := range []float64{-1, 0, float64(len(xs)), float64(len(xs) + 5), math.Inf(1)} {
		keep := b <= 0 // otherwise every point drops
		want := func(full float64) float64 {
			if keep {
				return full
			}
			return 0
		}
		noCenters, outliers := 0.0, len(xs)
		if keep {
			noCenters, outliers = math.Inf(1), 0
		}
		for name, c := range map[string][2]float64{
			"median":       {Evaluate(pts, centers, b, Median), want(sum)},
			"means":        {Evaluate(pts, centers, b, Means), want(sq)},
			"center":       {Evaluate(pts, centers, b, Center), want(radius)},
			"no centers":   {Evaluate(pts, nil, b, Center), noCenters},
			"u-median":     {uncertain.EvalMedian(g, nodes, centers, b), want(sum)},
			"u-means":      {uncertain.EvalMeans(g, nodes, centers, b), want(sq)},
			"u-center-pp":  {uncertain.EvalCenterPP(g, nodes, centers, b), want(radius)},
			"u-center-g":   {uncertain.EvalCenterG(g, nodes, centers, b, 8, 1), want(radius)},
			"u-no centers": {uncertain.EvalMedian(g, nodes, nil, b), noCenters},
		} {
			if c[0] != c[1] {
				t.Errorf("budget %v: %s = %v, want %v", b, name, c[0], c[1])
			}
		}
		a := dataio.Assign(pts, centers, b, false)
		if len(a.Outliers) != outliers {
			t.Errorf("budget %v: Assign drops %d points, want %d", b, len(a.Outliers), outliers)
		}
		for j, c := range a.Center {
			if (c >= 0) != keep || a.Dist[j] != math.Min(math.Abs(xs[j]), math.Abs(xs[j]-10)) {
				t.Errorf("budget %v: Assign point %d: center %d distance %v", b, j, c, a.Dist[j])
			}
		}
		for i := 1; i < len(a.Outliers); i++ {
			if a.Dist[a.Outliers[i]] > a.Dist[a.Outliers[i-1]] {
				t.Errorf("budget %v: Assign outliers %v not farthest first", b, a.Outliers)
			}
		}
	}
}

// FuzzEvaluateMatchesExact holds Evaluate to exact.Solve, the repository's
// independent oracle, on the same points and centers: with k equal to the
// number of centers exact.Solve has one subset to try, so its cost is an
// independent evaluation of those centers at floor(budget). The points are
// unit weights on a coarse grid (many exact ties), so the two agree bit for
// bit. The first 2k bytes are the centers (not input points in general),
// the rest the points.
func FuzzEvaluateMatchesExact(f *testing.F) {
	f.Add([]byte{0, 0, 40, 40, 1, 1, 8, 8, 8, 8, 200, 30, 40, 41, 16, 0}, uint8(2), uint8(5), uint8(0))
	f.Add([]byte{7, 7, 0, 0, 0, 0, 0, 0, 255, 255, 3, 4}, uint8(1), uint8(2), uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, uint8(0), uint8(11), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, k, t8, objective uint8) {
		kk := int(k % 5)
		if len(data) < 2*kk+2 {
			t.Skip()
		}
		point := func(b []byte) metric.Point { return metric.Point{float64(int8(b[0]) / 16), float64(int8(b[1]) / 32)} }
		centers := make([]metric.Point, kk)
		for i := range centers {
			centers[i] = point(data[2*i:])
		}
		var pts []metric.Point
		for i := 2 * kk; i+1 < len(data) && len(pts) < 40; i += 2 {
			pts = append(pts, point(data[i:]))
		}
		obj := Objective(objective % 3)
		budget := float64(t8) / 4
		agg := exact.Sum
		if obj == Center {
			agg = exact.Max
		}
		cross := metric.Cross{Pts: pts, Centers: centers, Squared: obj == Means}
		want := exact.Solve(cross, nil, kk, math.Floor(budget), agg).Cost
		got := Evaluate(pts, centers, budget, obj)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v k=%d budget=%v n=%d: Evaluate %v (%#x), exact %v (%#x)", obj, kk, budget, len(pts), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
