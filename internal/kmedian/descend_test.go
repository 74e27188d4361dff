package kmedian

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

// mirroredDuplicates is m random points of the plane with their mirror
// images through the origin, everything twice: a swap and its mirror image,
// and a swap and the same swap with the candidate's twin, cost the same to
// the last bit.
func mirroredDuplicates(seed int64, m int) *metric.Points {
	rng := rand.New(rand.NewSource(seed))
	var pts []metric.Point
	for i := 0; i < m; i++ {
		x, y := rng.NormFloat64()*10, rng.NormFloat64()*10
		pts = append(pts, metric.Point{x, y}, metric.Point{-x, -y}, metric.Point{x, y}, metric.Point{-x, -y})
	}
	return metric.NewPoints(pts)
}

// TestDescendTieOrder runs the descent where two slots of a round tie at
// the round's minimum to the last bit, so which one phase 2 walks first, and
// whether the later one survives the running best, decides the swap: centers,
// cost, dropped weights and the RNG stream left behind must be the
// reference's. The first loop shows the instances do tie: from the seeded
// centers, the cheapest swap of the exact table has a bit-equal twin.
func TestDescendTieOrder(t *testing.T) {
	const k, budget = 4, 3.0
	tied := 0
	for seed := int64(0); seed < 20; seed++ {
		sp := mirroredDuplicates(seed, 12)
		centers := seedDSquared(sp, nil, k, rand.New(rand.NewSource(seed)))
		best, twins := Eval(sp, nil, centers, budget).Cost, 0
		for f := 0; f < sp.N(); f++ {
			if slices.Contains(centers, f) {
				continue
			}
			for p := range centers {
				trial := slices.Clone(centers)
				trial[p] = f
				switch cost := EvalSum(sp, nil, trial, budget); {
				case cost < best:
					best, twins = cost, 1
				case cost == best:
					twins++
				}
			}
		}
		if twins >= 2 {
			tied++
		}
		for _, sample := range []int{-1, 10} {
			label := fmt.Sprintf("seed %d sample %d", seed, sample)
			run := func(reference bool) (Solution, int64) {
				rng := rand.New(rand.NewSource(seed))
				opt := Options{Seed: seed, SampleFacilities: sample, Options: engine.Options{Reference: reference}}.withDefaults()
				sol := descend(sp, nil, seedDSquared(sp, nil, k, rng), budget, opt, rng)
				return sol, rng.Int63()
			}
			ref, refNext := run(true)
			got, gotNext := run(false)
			sameSolution(t, label, ref, got)
			if !slices.Equal(got.Assign, ref.Assign) {
				t.Fatalf("%s: assignment differs from the reference", label)
			}
			if gotNext != refNext {
				t.Fatalf("%s: RNG stream diverged from the reference", label)
			}
		}
	}
	if tied < 10 {
		t.Fatalf("only %d of 20 instances tie at the first round's minimum: the test no longer tests tie order", tied)
	}
}

// TestRowsEvalMatchesEvalP holds the descent's column evaluation to Eval,
// field by field and bit for bit: median and means, unit and fractional
// weights, duplicate points (ties in the sort that decide who is dropped)
// and an explicit matrix that is no metric.
func TestRowsEvalMatchesEvalP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := parityPoints(31, 240, 3)
	var dup []metric.Point
	for _, p := range parityPoints(32, 80, 2) {
		dup = append(dup, p, p, p)
	}
	matrix := make(metric.Matrix, 120)
	for i := range matrix {
		matrix[i] = make([]float64, len(matrix))
		for j := range matrix[i] {
			matrix[i][j] = float64(rng.Intn(40)) * 0.3 // asymmetric, ties, no triangle inequality
		}
	}
	oracles := []struct {
		name string
		c    metric.Costs
	}{
		{"median", metric.NewPoints(pts)},
		{"means", metric.Squared{C: metric.SelfCosts{S: metric.NewPoints(pts)}}},
		{"duplicates", metric.NewPoints(dup)},
		{"matrix", matrix},
	}
	for _, o := range oracles {
		nc := o.c.Clients()
		frac := make([]float64, nc)
		for j := range frac {
			frac[j] = 0.25 + float64(rng.Intn(12))*0.25
		}
		for _, w := range [][]float64{nil, frac} {
			for _, k := range []int{1, 4, 9} {
				for _, budget := range []float64{0, 2.5, 17, float64(2 * nc)} {
					centers := rng.Perm(o.c.Facilities())[:k]
					label := fmt.Sprintf("%s weighted=%v k=%d t=%v", o.name, w != nil, k, budget)
					want := Eval(o.c, w, centers, budget)
					for _, workers := range []int{1, 3} {
						var sc Scratch
						sc.fit(nc, k)
						copy(sc.centers, centers)
						for p, f := range centers {
							metric.CostColumn(o.c, f, nil, sc.rows[p])
						}
						got := sc.solution(sc.eval(w, budget, workers), budget)
						if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Budget != want.Budget {
							t.Fatalf("%s: cost %v (%#x) budget %v, Eval %v (%#x) %v", label, got.Cost, math.Float64bits(got.Cost), got.Budget, want.Cost, math.Float64bits(want.Cost), want.Budget)
						}
						if !slices.Equal(got.Centers, want.Centers) || !slices.Equal(got.Assign, want.Assign) || !slices.Equal(got.Order, want.Order) {
							t.Fatalf("%s: centers, assignment or order differ from Eval", label)
						}
						for j := range want.DroppedWeight {
							if math.Float64bits(got.DroppedWeight[j]) != math.Float64bits(want.DroppedWeight[j]) {
								t.Fatalf("%s: dropped weight of client %d: %v, Eval %v", label, j, got.DroppedWeight[j], want.DroppedWeight[j])
							}
						}
					}
				}
			}
		}
	}
}
