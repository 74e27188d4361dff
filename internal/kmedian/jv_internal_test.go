package kmedian

import (
	"math"
	"slices"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

// jvRun unit tests: the dual-ascent internals that JV() builds on.

func TestJVRunFreeFacilitiesOpenEverywhere(t *testing.T) {
	// lambda = 0: every point pays for its own facility instantly; after
	// pruning each client is served at distance 0.
	sp := metric.NewPoints([]metric.Point{{0}, {5}, {9}})
	r := jvRun(sp, nil, 0, 0, Options{Options: engine.Options{Workers: 1}})
	if r.outlierW > 1e-9 {
		t.Fatalf("outlier weight = %g", r.outlierW)
	}
	sol := Eval(sp, nil, r.open, 0)
	if sol.Cost > 1e-9 {
		t.Fatalf("free facilities should give zero cost, got %g", sol.Cost)
	}
}

func TestJVRunHugeLambdaOpensOne(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {1}, {2}, {3}})
	r := jvRun(sp, nil, 1e6, 0, Options{Options: engine.Options{Workers: 1}})
	if r.numOpen != 1 {
		t.Fatalf("open = %d, want 1", r.numOpen)
	}
	if r.outlierW > 1e-9 {
		t.Fatal("no outliers expected with stopW=0")
	}
}

func TestJVRunOutlierStop(t *testing.T) {
	// One extremely remote point: with stopW = 1 the ascent must stop
	// before freezing it (it is the last to connect).
	sp := metric.NewPoints([]metric.Point{{0}, {0.1}, {0.2}, {1e9}})
	r := jvRun(sp, nil, 0.5, 1, Options{Options: engine.Options{Workers: 1}})
	if !r.outlier[3] {
		t.Fatalf("remote point not left active: %+v", r.outlier)
	}
	if r.outlierW > 1+1e-9 {
		t.Fatalf("outlier weight %g exceeds stop budget", r.outlierW)
	}
	// Theta must have stopped far below the remote distance.
	if r.stopTheta > 1e6 {
		t.Fatalf("ascent ran to theta = %g", r.stopTheta)
	}
}

func TestJVRunPrunedFacilitiesAreIndependent(t *testing.T) {
	// Two tight pairs: pruning must never keep two facilities that share a
	// positively-contributing client.
	sp := metric.NewPoints([]metric.Point{{0}, {0.01}, {10}, {10.01}})
	r := jvRun(sp, nil, 0.1, 0, Options{Options: engine.Options{Workers: 1}})
	if r.numOpen < 1 || r.numOpen > 2 {
		t.Fatalf("open = %d", r.numOpen)
	}
	// With this lambda the two clusters should each get one facility.
	if r.numOpen == 2 {
		d := math.Abs(sp.Pts[r.open[0]][0] - sp.Pts[r.open[1]][0])
		if d < 5 {
			t.Fatalf("pruned facilities too close: %v", r.open)
		}
	}
}

func TestJVRunWeightedStop(t *testing.T) {
	// Weighted clients: stop budget counts weight, not cardinality.
	m := metric.Matrix{
		{0, 1, 100},
		{1, 0, 100},
		{100, 100, 0},
	}
	w := []float64{1, 1, 5} // the far client is heavy
	r := jvRun(m, w, 10, 2, Options{Options: engine.Options{Workers: 1}})
	// The heavy client (weight 5 > stop 2) cannot be the outlier wholesale;
	// the ascent must connect it eventually or stop with light actives.
	if r.outlierW > 2+1e-9 {
		t.Fatalf("outlier weight %g > stop budget", r.outlierW)
	}
}

// TestJVRunFastMatchesJVRun holds the event-driven ascent to the reference
// ascent probe by probe: over a geometric lambda sweep from 0 past the
// one-facility price, with and without an outlier stop, jvRunFast opens the
// same facilities in the same order, leaves the same clients active, and
// stops at the same theta and active weight, bit for bit.
func TestJVRunFastMatchesJVRun(t *testing.T) {
	for _, in := range jvInstances() {
		c, w := in.ref, in.w
		g := newJVGraph(in.got, Options{})
		top := 0.0
		for _, col := range g.costs {
			top = max(top, slices.Max(col))
		}
		top *= TotalWeight(c, w) + 1
		lambdas := []float64{0}
		for l := top * 1e-7; l <= 2*top; l *= 2.5 {
			lambdas = append(lambdas, l)
		}
		for _, stopW := range []float64{0, float64(c.Clients() / 10)} {
			for _, lambda := range lambdas {
				opt := Options{Options: engine.Options{Workers: 1}}
				ref, got := jvRun(c, w, lambda, stopW, opt), jvRunFast(g, w, lambda, stopW, opt)
				if !slices.Equal(got.open, ref.open) || !slices.Equal(got.outlier, ref.outlier) || got.numOpen != ref.numOpen ||
					math.Float64bits(got.stopTheta) != math.Float64bits(ref.stopTheta) || math.Float64bits(got.outlierW) != math.Float64bits(ref.outlierW) {
					t.Fatalf("%s lambda=%v stopW=%v: fast open %v theta %v active weight %v, reference open %v theta %v active weight %v",
						in.name, lambda, stopW, got.open, got.stopTheta, got.outlierW, ref.open, ref.stopTheta, ref.outlierW)
				}
			}
		}
	}
}

func TestPairAndFillRespectsK(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {1}, {2}, {10}, {11}, {12}})
	small := []int{0, 4}
	large := []int{1, 2, 3, 5}
	out := pairAndFill(sp, nil, small, large, 3, 0)
	if len(out) > 3 {
		t.Fatalf("pairAndFill returned %d > k", len(out))
	}
	for _, f := range out {
		found := false
		for _, g := range large {
			if f == g {
				found = true
			}
		}
		if !found {
			t.Fatalf("facility %d not from the large solution", f)
		}
	}
}

func TestTopKByServedWeight(t *testing.T) {
	sp := metric.NewPoints([]metric.Point{{0}, {0.1}, {0.2}, {50}})
	open := []int{0, 3}
	// All three cluster points are served by facility 0; facility 3 serves
	// itself only.
	top := topKByServedWeight(sp, nil, open, 1, 0)
	if len(top) != 1 || top[0] != 0 {
		t.Fatalf("top = %v, want [0]", top)
	}
	// k >= len(open) passes through.
	if got := topKByServedWeight(sp, nil, open, 5, 0); len(got) != 2 {
		t.Fatalf("passthrough = %v", got)
	}
}
