package kmedian

import (
	"fmt"
	"math/rand"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

func parityPoints(seed int64, n, dim int) []metric.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]metric.Point, n)
	for i := range pts {
		p := make(metric.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

func sameSolution(t *testing.T, label string, ref, got Solution) {
	t.Helper()
	if got.Cost != ref.Cost {
		t.Fatalf("%s: cost %v != reference %v", label, got.Cost, ref.Cost)
	}
	if len(got.Centers) != len(ref.Centers) {
		t.Fatalf("%s: %d centers != reference %d", label, len(got.Centers), len(ref.Centers))
	}
	for i := range ref.Centers {
		if got.Centers[i] != ref.Centers[i] {
			t.Fatalf("%s: centers %v != reference %v", label, got.Centers, ref.Centers)
		}
	}
	for j := range ref.DroppedWeight {
		if got.DroppedWeight[j] != ref.DroppedWeight[j] {
			t.Fatalf("%s: dropped weight differs at client %d", label, j)
		}
	}
}

// engineParity solves with the reference engine on the first oracle and
// holds the fast engine to that solution on every oracle at 1, 3 and 8
// workers.
func engineParity(t *testing.T, label string, w []float64, k int, tt float64, oracles ...metric.Costs) {
	t.Helper()
	ref := LocalSearch(oracles[0], w, k, tt, Options{Seed: 9, Options: engine.Options{Reference: true}})
	for _, workers := range []int{1, 3, 8} {
		for i, c := range oracles {
			got := LocalSearch(c, w, k, tt, Options{Seed: 9, Options: engine.Options{Workers: workers}})
			sameSolution(t, fmt.Sprintf("%s oracle %d workers %d", label, i, workers), ref, got)
		}
	}
}

// TestEngineMatchesReference is the core engine contract: the fast local
// search must return bit-identical solutions to the seed sequential
// implementation, for every worker count, with and without the distance
// cache, weighted and unweighted — and on the repo benchmark's two shard
// shapes and a duplicate-heavy instance, where the unit-weight merge
// evaluator meets squared costs, cached lookups and ties everywhere.
func TestEngineMatchesReference(t *testing.T) {
	for _, n := range []int{40, 300, 900} {
		for _, weighted := range []bool{false, true} {
			pts := parityPoints(int64(n)+3, n, 2)
			var w []float64
			if weighted {
				rng := rand.New(rand.NewSource(int64(n)))
				w = make([]float64, n)
				for i := range w {
					w[i] = 0.5 + rng.Float64()*3
				}
			}
			base := metric.NewPoints(pts)
			engineParity(t, fmt.Sprintf("n=%d weighted=%v", n, weighted), w, 6, float64(n/15), base, metric.NewDistCache(base))
		}
	}
	// means-hidim's shard: above MaxCachePoints, so the raw oracle, squared.
	hidim := metric.NewPoints(parityPoints(5, 2100, 16))
	engineParity(t, "means 2100x16", nil, 10, 42, metric.Squared{C: metric.SelfCosts{S: hidim}})
	// median-shards' shard on the memoized oracle.
	shard := metric.NewPoints(parityPoints(6, 250, 2))
	engineParity(t, "median 250x2 cached", nil, 5, 20, shard, metric.NewDistCache(shard))
	// Every point three times: zero distances and ties in every merge.
	var dup []metric.Point
	for _, p := range parityPoints(7, 100, 2) {
		dup = append(dup, p, p, p)
	}
	dups := metric.NewPoints(dup)
	engineParity(t, "duplicates", nil, 6, 20, dups, metric.NewDistCache(dups))
}

// TestJVMatchesReference pins the primal-dual engine: the precomputed
// shared edge orders and the parallel event reductions must not change any
// probe of the lambda binary search.
func TestJVMatchesReference(t *testing.T) {
	for _, n := range []int{30, 90, 140} {
		pts := parityPoints(int64(n)+11, n, 2)
		base := metric.NewPoints(pts)
		tt := float64(n / 10)
		ref := JV(base, nil, 4, tt, 0.5, Options{Seed: 5, Options: engine.Options{Reference: true}})
		for _, workers := range []int{1, 4} {
			got := JV(metric.NewDistCache(base), nil, 4, tt, 0.5, Options{Seed: 5, Options: engine.Options{Workers: workers}})
			sameSolution(t, "jv", ref, got)
		}
	}
}

// TestEvalPMatchesEval pins the parallel assignment loop.
func TestEvalPMatchesEval(t *testing.T) {
	pts := parityPoints(21, 700, 3)
	base := metric.NewPoints(pts)
	centers := []int{3, 99, 250, 600}
	ref := Eval(base, nil, centers, 31)
	for _, workers := range []int{2, 5} {
		got := EvalP(base, nil, centers, 31, workers)
		sameSolution(t, "evalp", ref, got)
		for j := range ref.Assign {
			if got.Assign[j] != ref.Assign[j] {
				t.Fatalf("assignment differs at client %d", j)
			}
		}
	}
}

// TestPartialCostUnitMatchesPairs pins the unit-weight fast walk against
// the reference pair walk on adversarial tie patterns.
func TestPartialCostUnitMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(rng.Intn(8)) / 4 // many exact ties, incl. zeros
		}
		tt := rng.Float64() * float64(n)
		ds := make([]cd, n)
		for i := range d {
			ds[i] = cd{d: d[i], w: 1}
		}
		want := partialCostPairs(ds, tt)
		got := partialCostUnit(append([]float64(nil), d...), tt)
		if got != want {
			t.Fatalf("trial %d: partialCostUnit = %v, partialCostPairs = %v (d=%v t=%v)", trial, got, want, d, tt)
		}
	}
}
