package kmedian

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// sameSolution holds got to ref field for field: centers, cost and budget
// bits, assignment, dropped weight bits.
func sameSolution(t testing.TB, label string, ref, got Solution) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(ref.Cost) || math.Float64bits(got.Budget) != math.Float64bits(ref.Budget) {
		t.Fatalf("%s: cost %v budget %v != reference %v budget %v", label, got.Cost, got.Budget, ref.Cost, ref.Budget)
	}
	if len(got.Centers) != len(ref.Centers) {
		t.Fatalf("%s: %d centers != reference %d", label, len(got.Centers), len(ref.Centers))
	}
	for i := range ref.Centers {
		if got.Centers[i] != ref.Centers[i] {
			t.Fatalf("%s: centers %v != reference %v", label, got.Centers, ref.Centers)
		}
	}
	if len(got.DroppedWeight) != len(ref.DroppedWeight) || len(got.Assign) != len(ref.Assign) {
		t.Fatalf("%s: %d/%d dropped/assigned clients != reference %d/%d", label,
			len(got.DroppedWeight), len(got.Assign), len(ref.DroppedWeight), len(ref.Assign))
	}
	for j := range ref.DroppedWeight {
		if math.Float64bits(got.DroppedWeight[j]) != math.Float64bits(ref.DroppedWeight[j]) {
			t.Fatalf("%s: dropped weight differs at client %d", label, j)
		}
	}
	for j := range ref.Assign {
		if got.Assign[j] != ref.Assign[j] {
			t.Fatalf("%s: assignment differs at client %d", label, j)
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

// jvInstance is one JV parity instance: an oracle for each engine (the
// fast engine's may add a cache) and the client weights.
type jvInstance struct {
	name     string
	ref, got metric.Costs
	w        []float64
}

// preclusters is the shape a coordinator's Theorem 3.1 solve sees: each of
// sites shards of clustered points solved for (2k, q), its centers weighted
// by the inliers they serve and its q outliers shipped at weight 1.
func preclusters(r *rand.Rand, sites, perSite, k, q int) ([]metric.Point, []float64) {
	var pts []metric.Point
	var w []float64
	for s := 0; s < sites; s++ {
		shard := clusteredPoints(r, perSite, 2, 1)
		sol := LocalSearch(metric.NewPoints(shard), nil, 2*k, float64(q), Options{Seed: int64(s)})
		for i, x := range sol.CenterWeights() {
			pts, w = append(pts, shard[sol.Centers[i]]), append(w, x)
		}
		for _, j := range sol.Outliers() {
			pts, w = append(pts, shard[j]), append(w, 1)
		}
	}
	return pts, w
}

// jvInstances are TestJVMatchesReference's instances, median and means:
// unit-weight Gaussian points, coordinator-shaped weighted preclusters with
// unit-weight outliers, and every point three times (ties in every sorted
// column).
func jvInstances() []jvInstance {
	r := rand.New(rand.NewSource(41))
	type shape struct {
		name string
		pts  []metric.Point
		w    []float64
	}
	pre, prew := preclusters(r, 6, 60, 4, 4)
	var dup []metric.Point
	for _, p := range parityPoints(43, 20, 2) {
		dup = append(dup, p, p, p)
	}
	shapes := []shape{
		{"gaussian", parityPoints(42, 60, 2), nil},
		{"preclusters", pre, prew},
		{"triplicates", dup, nil},
	}
	var out []jvInstance
	for _, sh := range shapes {
		p := metric.NewPoints(sh.pts)
		out = append(out,
			jvInstance{sh.name + " median", p, metric.SelfCosts{S: metric.NewDistCache(p)}, sh.w},
			jvInstance{sh.name + " means", metric.Squared{C: metric.SelfCosts{S: p}}, metric.Squared{C: metric.SelfCosts{S: metric.NewDistCache(p)}}, sh.w},
		)
	}
	return out
}

// TestJVMatchesReference pins the primal-dual engine: the shared edge
// graph, the event-driven ascent (jvRunFast) and the parallel event
// reductions must not change any probe of the lambda binary search, on
// coordinator-shaped weighted instances, squared costs and tie-heavy
// columns, at every k, t, eps and worker count.
func TestJVMatchesReference(t *testing.T) {
	for _, n := range []int{30, 90, 140} {
		pts := parityPoints(int64(n)+11, n, 2)
		base := metric.NewPoints(pts)
		tt := float64(n / 10)
		ref := JV(base, nil, 4, tt, 0.5, Options{Seed: 5, Options: engine.Options{Reference: true}})
		for _, workers := range []int{1, 4} {
			got := JV(metric.NewDistCache(base), nil, 4, tt, 0.5, Options{Seed: 5, Options: engine.Options{Workers: workers}})
			sameSolution(t, fmt.Sprintf("unit n=%d workers=%d", n, workers), ref, got)
		}
	}
	for _, in := range jvInstances() {
		n := in.ref.Clients()
		for _, k := range []int{1, 3, 5} {
			for _, tt := range []float64{0, float64(n / 10), float64(n / 2)} {
				for _, eps := range []float64{0, 1} {
					ref := JV(in.ref, in.w, k, tt, eps, Options{Seed: 5, Options: engine.Options{Reference: true}})
					for _, workers := range []int{1, 4} {
						got := JV(in.got, in.w, k, tt, eps, Options{Seed: 5, Options: engine.Options{Workers: workers}})
						sameSolution(t, fmt.Sprintf("%s k=%d t=%v eps=%v workers=%d", in.name, k, tt, eps, workers), ref, got)
					}
				}
			}
		}
	}
	// Past one par block (512 facilities) the event reductions fan out over
	// the pool. The reference takes seconds there, so the pool is held to the
	// sequential fast engine, which the rows above hold to the reference.
	p := metric.NewPoints(parityPoints(44, 520, 2))
	seq := JV(p, nil, 5, 26, 1, Options{Options: engine.Options{Workers: 1}})
	sameSolution(t, "520 points workers=4", seq, JV(p, nil, 5, 26, 1, Options{Options: engine.Options{Workers: 4}}))
}

// FuzzJVMatchesReference: any instance of at most 40 weighted points, median
// or means, gets the reference engine's solution from the fast JV engine,
// field for field. Each point takes three bytes — two small integer
// coordinates (ties and duplicates everywhere) and a weight in quarters.
func FuzzJVMatchesReference(f *testing.F) {
	tie := make([]byte, 0, 120)
	for i := 0; i < 40; i++ {
		tie = append(tie, byte(i%3), byte(i%2), byte(4*(1+i%3)))
	}
	f.Add(tie, uint8(3), uint8(6), uint8(1))
	f.Add([]byte{0, 0, 4, 9, 9, 4, 0, 1, 8, 200, 3, 1, 9, 8, 12}, uint8(2), uint8(1), uint8(2|4))
	f.Fuzz(func(t *testing.T, data []byte, k, t8, flags uint8) {
		n := min(len(data)/3, 40)
		if n == 0 {
			t.Skip()
		}
		pts, w := make([]metric.Point, n), make([]float64, n)
		for i := range pts {
			b := data[3*i : 3*i+3]
			pts[i] = metric.Point{float64(int8(b[0]) / 8), float64(int8(b[1]) / 8)}
			w[i] = 0.25 * float64(1+b[2]%16)
		}
		p := metric.NewPoints(pts)
		var c metric.Costs = p
		if flags&2 != 0 {
			c = metric.Squared{C: metric.SelfCosts{S: p}}
		}
		kk, tt, eps := 1+int(k%6), float64(t8%16)/2, float64(flags&1)
		workers := 1 + 3*int(flags>>2&1)
		ref := JV(c, w, kk, tt, eps, Options{Options: engine.Options{Reference: true}})
		got := JV(c, w, kk, tt, eps, Options{Options: engine.Options{Workers: workers}})
		sameSolution(t, fmt.Sprintf("n=%d k=%d t=%v eps=%v flags=%#x", n, kk, tt, eps, flags), ref, got)
	})
}

// TestSortFuncMatchesSortSlice pins the sort swap the fast engine rests on:
// slices.SortFunc under descBy (Scratch.eval), under edgeCmp over (cost,
// client) pairs (newJVGraph), under byPotDesc (descend's candidate
// ranking) and under byCostDesc (partialCostPairs' []cd) make exactly the
// permutations the reference's sort.Slice makes, on keys full of ties —
// small integers, duplicates, ±0, +Inf and one or many NaNs — at sizes on
// both sides of pdqsort's insertion-sort cutoff.
// A Go release that lets the two sorts diverge fails here instead of
// silently moving DroppedWeight.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pool := []float64{0, math.Copysign(0, -1), 1, 2, 3, 0.5, math.Inf(1)}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(300)
		key := make([]float64, n)
		for i := range key {
			key[i] = pool[r.Intn(len(pool))]
			if trial%4 == 0 {
				key[i] = float64(r.Intn(n/4 + 1)) // wide ties, no specials
			}
		}
		switch trial % 10 {
		case 1:
			key[r.Intn(n)] = math.NaN()
		case 3:
			for i := range key {
				if r.Intn(4) == 0 {
					key[i] = math.NaN() // NaNs among the ties
				}
			}
		}
		identity := func() []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		want := identity()
		sort.Slice(want, func(a, b int) bool { return key[want[a]] > key[want[b]] })
		got := identity()
		slices.SortFunc(got, descBy(key))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: descBy permutation %v, sort.Slice %v (keys %v)", trial, got, want, key)
		}
		want = identity()
		sort.Slice(want, func(a, b int) bool { return key[want[a]] < key[want[b]] })
		es := make([]jvEdge, n)
		for j, x := range key {
			es[j] = jvEdge{c: x, j: int32(j)}
		}
		slices.SortFunc(es, edgeCmp)
		for i, e := range es {
			if int(e.j) != want[i] {
				t.Fatalf("trial %d: edgeCmp puts client %d at %d, sort.Slice client %d (keys %v)", trial, e.j, i, want[i], key)
			}
		}
		top := make([]scored, n)
		for f, x := range key {
			top[f] = scored{f: f, pot: x}
		}
		ref := slices.Clone(top)
		sort.Slice(ref, func(a, b int) bool { return ref[a].pot > ref[b].pot })
		slices.SortFunc(top, byPotDesc)
		for i := range top {
			if top[i].f != ref[i].f {
				t.Fatalf("trial %d: byPotDesc puts facility %d at %d, sort.Slice facility %d (keys %v)", trial, top[i].f, i, ref[i].f, key)
			}
		}
		// partialCostPairs' (cost, weight) pairs, each weight its client.
		pairs := make([]cd, n)
		for j, x := range key {
			pairs[j] = cd{d: x, w: float64(j)}
		}
		refPairs := slices.Clone(pairs)
		sort.Slice(refPairs, func(a, b int) bool { return refPairs[a].d > refPairs[b].d })
		slices.SortFunc(pairs, byCostDesc)
		for i := range pairs {
			if pairs[i].w != refPairs[i].w {
				t.Fatalf("trial %d: byCostDesc puts client %v at %d, sort.Slice client %v (keys %v)", trial, pairs[i].w, i, refPairs[i].w, key)
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
