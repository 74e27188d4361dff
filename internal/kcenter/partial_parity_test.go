package kcenter

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dpc/internal/metric"
)

// costFunc adapts a closure into a cost oracle that is neither a
// metric.Space nor a *metric.Points, so the fast engine takes its
// full-matrix walk.
type costFunc struct {
	nc, nf int
	cost   func(j, f int) float64
}

func (c costFunc) Clients() int          { return c.nc }
func (c costFunc) Facilities() int       { return c.nf }
func (c costFunc) Cost(j, f int) float64 { return c.cost(j, f) }

// partialCase is one instance of the fast-vs-reference identity.
type partialCase struct {
	name string
	c    metric.Costs
	w    []float64
	k    int
	t    float64
}

// samePartial fails unless the fast engine (at two worker counts, in a
// Scratch that has just solved an instance of another size and been
// poisoned, and in that Scratch again, which reuses a *metric.Points
// instance's index) returns partialReference's answer bit for bit: Radius
// by Float64bits, Centers index by index.
func samePartial(t *testing.T, pc partialCase) {
	t.Helper()
	ref := PartialOpt(pc.c, pc.w, pc.k, pc.t, Opt{Reference: true})
	for _, workers := range []int{1, 4} {
		got := PartialOpt(pc.c, pc.w, pc.k, pc.t, Opt{Workers: workers})
		sameSolution(t, fmt.Sprintf("workers=%d", workers), got, ref)
	}
	sc := new(Scratch)
	sc.Partial(otherSize, nil, 3, 6, Opt{})
	poisonScratch(sc)
	sameSolution(t, "reused scratch", sc.Partial(pc.c, pc.w, pc.k, pc.t, Opt{}), ref)
	sameSolution(t, "solved again", sc.Partial(pc.c, pc.w, pc.k, pc.t, Opt{}), ref)
}

// otherSize is what samePartial's scratch solves first: 61 points, a size
// no table row and no fuzz input (at most 12 x 12) has.
var otherSize = metric.NewPoints(parityPoints(61, 61))

// sameSolution fails unless got is want bit for bit.
func sameSolution(t *testing.T, label string, got, want Solution) {
	t.Helper()
	if math.Float64bits(got.Radius) != math.Float64bits(want.Radius) {
		t.Fatalf("%s: radius %v (%#x) != reference %v (%#x)", label,
			got.Radius, math.Float64bits(got.Radius), want.Radius, math.Float64bits(want.Radius))
	}
	if !slices.Equal(got.Centers, want.Centers) {
		t.Fatalf("%s: centers %v != reference %v", label, got.Centers, want.Centers)
	}
}

// poisonScratch overwrites every buffer of s to its capacity with values no
// solve writes there: NaN floats, all-ones unsigned and -1 signed integers
// (a NaN cost or an all-ones cell read as data changes an answer or
// panics). It walks the fields by reflection, so a buffer added to Scratch
// is poisoned without this helper knowing its name.
func poisonScratch(s *Scratch) {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		buf := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		buf = buf.Slice(0, buf.Cap())
		for e := 0; e < buf.Len(); e++ {
			switch x := buf.Index(e); x.Kind() {
			case reflect.Float64:
				x.SetFloat(math.NaN())
			case reflect.Uint32, reflect.Uint64:
				x.SetUint(math.MaxUint64 >> (64 - 8*x.Type().Size()))
			case reflect.Int, reflect.Int32:
				x.SetInt(-1)
			default:
				panic("poisonScratch: unhandled kind " + x.Kind().String())
			}
		}
	}
}

// TestPartialScratchReuse runs every partialCases row through one Scratch,
// forward and then backward, so the instance grows and shrinks between
// point sets, full matrices, a facility subset and the NaN and negative
// rows that fall back to partialReference; the scratch is poisoned after
// every solve. Each answer must be a fresh PartialOpt's bit for bit, and
// must not change when the scratch is poisoned after it: a Solution never
// aliases its scratch. The all-equal and one-point rows are the instances
// whose radix sort skips every pass, so the candidate radii are written
// into the poisoned second buffer.
func TestPartialScratchReuse(t *testing.T) {
	cases := partialCases()
	backward := slices.Clone(cases)
	slices.Reverse(backward)
	sc := new(Scratch)
	for _, order := range [][]partialCase{cases, backward} {
		for _, pc := range order {
			want := PartialOpt(pc.c, pc.w, pc.k, pc.t, Opt{})
			got := sc.Partial(pc.c, pc.w, pc.k, pc.t, Opt{})
			sameSolution(t, pc.name, got, want)
			poisonScratch(sc)
			sameSolution(t, pc.name+" after poisoning", got, want)
		}
	}
}

// partialCases is the table TestPartialMatchesReference runs and
// FuzzPartialMatchesReference is seeded from.
func partialCases() []partialCase {
	var cases []partialCase
	add := func(name string, c metric.Costs, w []float64, k int, t float64) {
		cases = append(cases, partialCase{name, c, w, k, t})
	}
	fractional := func(seed int64, n int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.25 + rng.Float64()
		}
		return w
	}

	// The coordinator of Algorithm 2: 32 sites x (k + t_i) Gonzalez
	// preclusters of a 4096-point mixture, integer count weights.
	coord, counts := coordinatorInstance(1, 32, 128, 12)
	add("coordinator-counts", coord, counts, 4, 128)
	add("coordinator-fractional", coord, fractional(2, coord.N()), 4, 128)
	add("coordinator-unit", coord, nil, 4, 128)
	for _, m := range []metric.Metric{metric.ManhattanL1, metric.ChebyshevLinf} {
		add("coordinator-"+m.String(), &metric.Points{Pts: coord.Pts, M: m}, counts, 4, 128)
	}
	for _, n := range []int{30, 250} {
		sp := metric.NewPoints(parityPoints(int64(n)+9, n))
		add(fmt.Sprintf("gauss-%d-unit", n), sp, nil, 4, float64(n/10))
		add(fmt.Sprintf("gauss-%d-fractional", n), sp, fractional(int64(n), n), 4, float64(n/10))
	}

	// Asymmetric and not a Space: l_j + d(y_j, y_f), as uncertain.Collapsed.
	small := metric.NewPoints(parityPoints(77, 90))
	ell := fractional(3, small.N())
	add("asymmetric", costFunc{small.N(), small.N(), func(j, f int) float64 {
		return small.Dist(j, f) + ell[j]
	}}, fractional(4, small.N()), 3, 9)
	// A symmetric oracle the engine may not assume symmetric.
	add("self-costs", metric.SelfCosts{S: small}, fractional(5, small.N()), 3, 9)
	// nc != nf.
	add("facility-subset", metric.FacilitySubset{C: small, FacIdx: []int{3, 80, 11, 42, 42, 7, 60}},
		fractional(6, small.N()), 2, 9.5)

	// Ties: every point three times (off-diagonal zeros), then all equal.
	var tripled []metric.Point
	for _, p := range parityPoints(5, 40) {
		tripled = append(tripled, p, p, p)
	}
	add("duplicates", metric.NewPoints(tripled), fractional(7, len(tripled)), 3, 10)
	same := make([]metric.Point, 50)
	for i := range same {
		same[i] = metric.Point{1.5, -2}
	}
	add("all-equal", metric.NewPoints(same), fractional(8, len(same)), 2, 3)

	// Near-ties: costs that agree in the 32 high bits the radix sort sees
	// and differ below — one run of all 900 cells, and a point set whose
	// distances (j-i) + dust form runs of every length up to n.
	add("near-ties-matrix", costFunc{30, 30, func(j, f int) float64 {
		return 1 + float64((j*31+f*17)%97)*0x1p-45
	}}, fractional(10, 30), 3, 2.5)
	line := make([]metric.Point, 40)
	for i := range line {
		line[i] = metric.Point{float64(i) + float64(i*i%7)*0x1p-30}
	}
	add("near-ties-points", metric.NewPoints(line), fractional(12, len(line)), 3, 4)

	// Costs whose bit patterns need care: +Inf sorts last, -0.0 is the
	// radius +0.0, and a negative cost sends the instance to the reference.
	withCell := func(v float64) metric.Costs {
		return costFunc{small.N(), small.N(), func(j, f int) float64 {
			if j == 17 && f == 4 {
				return v
			}
			return small.Dist(j, f)
		}}
	}
	add("inf-cell", withCell(math.Inf(1)), nil, 3, 9)
	add("inf-row", costFunc{small.N(), small.N(), func(j, f int) float64 {
		if j == 17 {
			return math.Inf(1)
		}
		return small.Dist(j, f)
	}}, nil, 3, 0)
	add("negative-zero-cell", withCell(math.Copysign(0, -1)), nil, 3, 9)
	add("negative-zero-diagonal", costFunc{small.N(), small.N(), func(j, f int) float64 {
		if j == f {
			return math.Copysign(0, -1)
		}
		return small.Dist(j, f)
	}}, nil, 90, 0)
	add("negative-cell", withCell(-3), nil, 3, 9)
	add("nan-cell", withCell(math.NaN()), nil, 3, 9)
	add("inf-coordinate", metric.NewPoints(append([]metric.Point{{math.Inf(1), 0}}, small.Pts...)), nil, 3, 9)

	// Degenerate k and t.
	w := fractional(9, small.N())
	var total float64
	for _, x := range w {
		total += x
	}
	add("k>=nf", small, w, small.N()+5, 0)
	add("k>=nf-subset", metric.FacilitySubset{C: small, FacIdx: []int{3, 80}}, w, 2, 1)
	add("k=1", small, w, 1, 9)
	add("t=0", small, w, 3, 0)
	add("t=2.5", small, w, 3, 2.5)
	add("t>=total", small, w, 3, total)
	add("t-just-below-total", small, w, 3, total-0.1)
	add("k=0", small, w, 0, 1)
	add("one-point", metric.NewPoints([]metric.Point{{1, 2}}), nil, 1, 0)

	// Counted weights totalling exactly maxCountedTotal take the
	// prefix-count path; one more unit of weight falls back to the float
	// push loop (TestCountedGuard).
	atGuard, pastGuard := guardWeights(small.N())
	add("counts-at-guard", small, atGuard, 3, maxCountedTotal/10)
	add("counts-past-guard", small, pastGuard, 3, maxCountedTotal/10)
	return cases
}

// guardWeights returns n integer weights totalling maxCountedTotal, and
// the same weights with one unit more on the first.
func guardWeights(n int) (at, past []float64) {
	at = make([]float64, n)
	for i := range at {
		at[i] = float64(maxCountedTotal / uint64(n))
	}
	at[0] += float64(maxCountedTotal % uint64(n))
	past = slices.Clone(at)
	past[0]++
	return at, past
}

// TestCountedGuard pins which weights take the probes' prefix-count path:
// non-negative integers (nil means unit) totalling at most
// maxCountedTotal, and nothing else.
func TestCountedGuard(t *testing.T) {
	at, past := guardWeights(90)
	for _, tc := range []struct {
		name string
		w    []float64
		want bool
	}{
		{"unit", nil, true},
		{"counts", []float64{3, 0, 7, math.Copysign(0, -1)}, true},
		{"at the guard", at, true},
		{"past the guard", past, false},
		{"fractional", []float64{1, 2.5}, false},
		{"negative", []float64{1, -1}, false},
		{"NaN", []float64{1, math.NaN()}, false},
		{"+Inf", []float64{1, math.Inf(1)}, false},
	} {
		n := 90
		if tc.w != nil {
			n = len(tc.w)
		}
		if got := counted(tc.w, n); got != tc.want {
			t.Errorf("%s: counted = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPartialMatchesReference pins the fast greedy disk cover (one keyed
// sort, ball prefixes, push-style gains) to the seed oracle-scanning
// implementation, bit for bit: on the table above, then on seeded random
// instances of both walks (symmetric *metric.Points, full matrix) under
// count, unit and fractional weights.
func TestPartialMatchesReference(t *testing.T) {
	for _, pc := range partialCases() {
		t.Run(pc.name, func(t *testing.T) { samePartial(t, pc) })
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		sp := metric.NewPoints(parityPoints(seed+100, n))
		var c metric.Costs = sp
		if seed%2 == 1 {
			ell := make([]float64, n)
			for i := range ell {
				ell[i] = rng.Float64()
			}
			c = costFunc{n, n, func(j, f int) float64 { return sp.Dist(j, f) + ell[j] }}
		}
		for _, weights := range []string{"count", "unit", "fractional"} {
			var w []float64
			if weights != "unit" {
				w = make([]float64, n)
				for i := range w {
					w[i] = float64(1 + rng.Intn(9))
					if weights == "fractional" {
						w[i] *= 0.1
					}
				}
			}
			for _, kt := range [][2]float64{{1, 0}, {2, 3}, {4, 2.5}, {7, float64(n) / 4}, {3, 0.5}} {
				pc := partialCase{c: c, w: w, k: int(kt[0]), t: kt[1]}
				t.Run(fmt.Sprintf("sweep-%d-%s-k%d-t%g", seed, weights, pc.k, pc.t), func(t *testing.T) { samePartial(t, pc) })
			}
		}
	}
}

// fuzzPartialInput encodes an instance as FuzzPartialMatchesReference
// reads it: a header (nc, nf, k, t, and a flags byte: bit 0 symmetric, bit
// 1 integer counts) and then one byte a cell / weight. Costs are quantised
// to eight levels (plus four of dust) to force ties and near-ties; weights
// are u*0.1, so that their sums depend on the order of addition, or, with
// bit 1, the counts u themselves, which a symmetric instance solves on the
// prefix-count path.
func fuzzPartialInput(pc partialCase) []byte {
	nc, nf := min(pc.c.Clients(), 12), min(pc.c.Facilities(), 12)
	_, sym := pc.c.(*metric.Points)
	b := []byte{byte(nc), byte(nf), byte(pc.k), byte(pc.t * 4), 0}
	if sym {
		b[4] = 1
	}
	integer := pc.w == nil || !slices.ContainsFunc(pc.w, func(x float64) bool { return x != math.Trunc(x) })
	if integer {
		b[4] |= 2
	}
	for j := 0; j < nc; j++ {
		for f := 0; f < nf; f++ {
			level := byte(0)
			if x := pc.c.Cost(j, f); x > 0 {
				level = byte(math.Min(x, 255))
			}
			b = append(b, level)
		}
	}
	for j := 0; j < nc; j++ {
		u := 1.0
		if pc.w != nil {
			u = pc.w[j]
		}
		if !integer {
			u *= 10
		}
		b = append(b, byte(min(u, 255)))
	}
	return b
}

func FuzzPartialMatchesReference(f *testing.F) {
	for _, pc := range partialCases() {
		f.Add(fuzzPartialInput(pc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nc, nf := 1+int(data[0])%12, 1+int(data[1])%12
		k, budget, sym, integer := int(data[2])%14, float64(data[3]%64)/4, data[4]&1 == 1, data[4]&2 == 2
		data = data[5:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Level 6 is +Inf; level 7 is -0.0, the same radius as level 0.
		levels := [8]float64{0, 0.5, 1, 1.5, 2.5, 7, math.Inf(1), math.Copysign(0, -1)}
		var c metric.Costs
		if sym {
			// One quantised coordinate a point: a *metric.Points instance,
			// so the symmetric walk runs, with many tied distances.
			pts := make([]metric.Point, nc)
			for i := range pts {
				pts[i] = metric.Point{float64(next()%8) * 0.5}
			}
			c = metric.NewPoints(pts)
		} else {
			// Two more bits add dust below the radix sort's 32 high bits,
			// so that equal-looking cells are not all equal.
			cells := make([]float64, nc*nf)
			for i := range cells {
				b := next()
				cells[i] = levels[b&7]
				if dust := b >> 3 & 3; dust != 0 {
					cells[i] += float64(dust) * 0x1p-40
				}
			}
			c = costFunc{nc, nf, func(j, f int) float64 { return cells[j*nf+f] }}
		}
		w := make([]float64, c.Clients())
		for j := range w {
			w[j] = float64(next() % 32)
			if !integer {
				w[j] *= 0.1
			}
		}
		samePartial(t, partialCase{c: c, w: w, k: k, t: budget})
	})
}

// TestPointsCostBitwiseSymmetric pins what the fast engine's upper-triangle
// walk relies on: (*metric.Points).Cost(i, j) and Cost(j, i) are the same
// bits under every built-in metric, denormal coordinates included.
func TestPointsCostBitwiseSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]metric.Point, 60)
	for i := range pts {
		p := make(metric.Point, 5)
		for d := range p {
			switch rng.Intn(4) {
			case 0:
				p[d] = math.Float64frombits(uint64(rng.Int63n(1 << 40))) // denormal
			case 1:
				p[d] = rng.NormFloat64() * 1e-160 // squares underflow
			default:
				p[d] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			}
		}
		pts[i] = p
	}
	for _, m := range []metric.Metric{metric.EuclideanL2, metric.ManhattanL1, metric.ChebyshevLinf} {
		sp := &metric.Points{Pts: pts, M: m}
		for i := range pts {
			for j := range pts {
				a, b := sp.Cost(i, j), sp.Cost(j, i)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%v: Cost(%d,%d) = %#x but Cost(%d,%d) = %#x", m, i, j,
						math.Float64bits(a), j, i, math.Float64bits(b))
				}
			}
		}
	}
}

// TestPartialAllocsIndependentOfProbes is the ceiling on per-solve
// allocations: everything a probe touches is solve-scoped, so the count is
// the same small constant whether the binary search takes one probe (384
// equal points: a single candidate radius) or eighteen (the coordinator
// instance). It fails if a probe allocates again.
func TestPartialAllocsIndependentOfProbes(t *testing.T) {
	sp, w := coordinatorInstance(1, 32, 128, 12)
	same := make([]metric.Point, sp.N())
	for i := range same {
		same[i] = metric.Point{3, 4}
	}
	allocs := func(c metric.Costs) float64 {
		return testing.AllocsPerRun(5, func() { partialSink = PartialOpt(c, w, 4, 128, Opt{Workers: 1}) })
	}
	one, many := allocs(metric.NewPoints(same)), allocs(sp)
	if one != many {
		t.Fatalf("allocations depend on the probe count: %v with one probe, %v on the coordinator instance", one, many)
	}
	if many > 24 {
		t.Fatalf("%v allocations a solve, want <= 24", many)
	}
}

// TestPartialWarmScratchAllocs is TestPartialAllocsIndependentOfProbes'
// sibling for reused memory: once a Scratch has solved the 384-client
// coordinator instance, solving it again allocates at most 64 KiB (the
// Solution and EvalMaxOpt's sort), where a solve without one allocates
// about 2.9 MB — nothing sized by nc·nf is allocated again.
func TestPartialWarmScratchAllocs(t *testing.T) {
	sp, w := coordinatorInstance(1, 32, 128, 12)
	sc := new(Scratch)
	partialSink = sc.Partial(sp, w, 4, 128, Opt{})
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		partialSink = sc.Partial(sp, w, 4, 128, Opt{})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Fatalf("a warm-scratch solve allocates %d B, want <= 64 KiB", per)
	}
}

// clonePoints returns a deep copy of p: fresh slices with the same bits, as
// the center reducer builds every job.
func clonePoints(p *metric.Points) *metric.Points {
	pts := make([]metric.Point, len(p.Pts))
	for i, pt := range p.Pts {
		pts[i] = pt.Clone()
	}
	return &metric.Points{Pts: pts, M: p.M}
}

// TestPartialIndexReuse runs one Scratch through a sequence of instances
// and checks both the answers and which solves reused the ball index. Every
// answer must be a fresh PartialOpt's bit for bit. Only a *metric.Points
// bit-identical to the last one indexed reuses: A again (fresh slices, the
// same bits), and A under other weights, k and t. A′ (one coordinate one
// ulp away) rebuilds and replaces the key, so A rebuilds after it; so do A
// under another metric, a NaN-cost instance (which falls back to the
// reference and keeps no key), and A after that. A rebuild is seen in the
// triangle row's client list, which only a build writes: it is set to -1
// before every solve.
func TestPartialIndexReuse(t *testing.T) {
	a, counts := coordinatorInstance(1, 32, 128, 12)
	weights := make([]float64, a.N())
	for i := range weights {
		weights[i] = 0.25 + float64(i%7)*0.3
	}
	nudged := clonePoints(a)
	nudged.Pts[100][1] = math.Nextafter(nudged.Pts[100][1], math.Inf(1))
	l1 := clonePoints(a)
	l1.M = metric.ManhattanL1
	withNaN := clonePoints(a)
	withNaN.Pts[7][0] = math.NaN()
	steps := []struct {
		name   string
		c      *metric.Points
		w      []float64
		k      int
		t      float64
		reused bool
	}{
		{"A", a, counts, 4, 128, false},
		{"A again", clonePoints(a), counts, 4, 128, true},
		{"A, other weights, k and t", clonePoints(a), weights, 3, 40.5, true},
		{"A′", nudged, counts, 4, 128, false},
		{"A after A′", clonePoints(a), counts, 4, 128, false},
		{"A under L1", l1, counts, 4, 128, false},
		{"NaN cost", withNaN, counts, 4, 128, false},
		{"A after NaN", clonePoints(a), counts, 4, 128, false},
	}
	sc := new(Scratch)
	for _, st := range steps {
		for i := range sc.column {
			sc.column[i] = -1
		}
		got := sc.Partial(st.c, st.w, st.k, st.t, Opt{})
		sameSolution(t, st.name, got, PartialOpt(st.c, st.w, st.k, st.t, Opt{}))
		if rebuilt := len(sc.column) > 0 && sc.column[0] != -1; rebuilt == st.reused {
			t.Errorf("%s: rebuilt = %v, want %v", st.name, rebuilt, !st.reused)
		}
		if keyed := len(sc.key) > 0; keyed != (st.name != "NaN cost") {
			t.Errorf("%s: scratch keyed = %v", st.name, keyed)
		}
	}
}

// TestPartialScratchRetentionCap pins what a Scratch keeps between solves:
// after one 2,500-client solve, whose buffers take about 120 MiB, the heap
// it retains is at most maxScratchBytes, and it keeps no key; the
// 384-client coordinator instance, well under the cap, keeps both.
func TestPartialScratchRetentionCap(t *testing.T) {
	large := benchPoints(2500)
	sc := new(Scratch)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	partialSink = sc.Partial(large, nil, 5, 50, Opt{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > maxScratchBytes {
		t.Errorf("after a 2500-client solve the heap holds %d B more, want <= %d", held, maxScratchBytes)
	}
	if sc.bytes() > maxScratchBytes || len(sc.key) > 0 {
		t.Errorf("after a 2500-client solve the scratch keeps %d B and a key of %d values", sc.bytes(), len(sc.key))
	}
	runtime.KeepAlive(sc)

	sp, w := coordinatorInstance(1, 32, 128, 12)
	partialSink = sc.Partial(sp, w, 4, 128, Opt{})
	if n := sc.bytes(); n == 0 || n > maxScratchBytes || !sc.keyed(sp) {
		t.Errorf("after the 384-client solve the scratch keeps %d B, keyed %v", n, sc.keyed(sp))
	}
}

// TestPartialCountTableReuse runs one Scratch over one *metric.Points
// instance A under a sequence of counted weights, so the probes' prefix-count
// table is reused when the weights repeat and refilled when they change,
// around a rebuilt index: every answer must be a fresh PartialOpt's bit for
// bit.
func TestPartialCountTableReuse(t *testing.T) {
	a, counts := coordinatorInstance(1, 32, 128, 12)
	other := make([]float64, len(counts))
	for i := range other {
		other[i] = float64(1 + i%5)
	}
	b, bCounts := coordinatorInstance(3, 32, 128, 12)
	steps := []struct {
		name string
		c    *metric.Points
		w    []float64
	}{
		{"A, counts", a, counts},
		{"A, counts again", clonePoints(a), counts},
		{"A, other counts", clonePoints(a), other},
		{"A, unit", clonePoints(a), nil},
		{"A, counts after unit", clonePoints(a), counts},
		{"B, its counts", b, bCounts},
		{"A, counts after B", clonePoints(a), counts},
	}
	sc := new(Scratch)
	for _, st := range steps {
		sameSolution(t, st.name, sc.Partial(st.c, st.w, 4, 128, Opt{}), PartialOpt(st.c, st.w, 4, 128, Opt{}))
	}
}
