package kmedian

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// partialCostUnit is the sort-based unit-weight walk the fast engine used
// per swap slot before swapEval: sort the nc new connection costs, skip the
// top t, add the rest in descending order. Kept as the oracle swapEval is
// held to, bit for bit (TestPartialCostUnitMatchesPairs ties it to
// partialCostPairs, EvalSum's tail).
func partialCostUnit(d []float64, t float64) float64 {
	sort.Float64s(d)
	budget := t
	var cost float64
	for i := len(d) - 1; i >= 0; i-- {
		if budget >= 1 {
			budget--
			continue
		}
		keep := 1.0
		if budget > 0 {
			keep -= budget
			budget = 0
		}
		cost += keep * d[i]
	}
	return cost
}

// swapRound is one round's evaluator input: per client the
// nearest/second-nearest costs (d1 <= d2) with the nearest's position, and
// one candidate column.
type swapRound struct {
	col, d1, d2 []float64
	a1          []int
}

// sortedWalkCost is the pre-swapEval slot evaluation: the new connection
// cost of every client, then partialCostUnit.
func (r swapRound) sortedWalkCost(p int, t float64) float64 {
	buf := make([]float64, len(r.col))
	for j := range buf {
		dj := r.d1[j]
		if r.a1[j] == p {
			dj = r.d2[j]
		}
		if r.col[j] < dj {
			dj = r.col[j]
		}
		buf[j] = dj
	}
	return partialCostUnit(buf, t)
}

// swapClientBytes is the encoded size of one client in a swap corpus entry:
// three little-endian uint16 (d1, d2-d1, col; 0xFFFF is +Inf, anything else
// u*0.1 — not a dyadic step, so sums depend on the order of addition) and
// one byte of nearest-center position (0xFF: no finite center cost at all).
const swapClientBytes = 7

func decodeSwapRound(data []byte, k int) swapRound {
	nc := len(data) / swapClientBytes
	r := swapRound{col: make([]float64, nc), d1: make([]float64, nc), d2: make([]float64, nc), a1: make([]int, nc)}
	val := func(b []byte) float64 {
		if u := binary.LittleEndian.Uint16(b); u != 0xFFFF {
			return float64(u) * 0.1
		}
		return math.Inf(1)
	}
	for j := 0; j < nc; j++ {
		b := data[j*swapClientBytes:]
		r.d1[j], r.col[j], r.a1[j] = val(b), val(b[4:]), int(b[6])%k
		r.d2[j] = r.d1[j] + val(b[2:])
		if b[6] == 0xFF {
			r.d1[j], r.d2[j], r.a1[j] = math.Inf(1), math.Inf(1), -1
		}
	}
	return r
}

func encodeSwapClient(d1, gap, col uint16, a1 byte) []byte {
	b := make([]byte, swapClientBytes)
	binary.LittleEndian.PutUint16(b, d1)
	binary.LittleEndian.PutUint16(b[2:], gap)
	binary.LittleEndian.PutUint16(b[4:], col)
	b[6] = a1
	return b
}

// swapCase is one corpus entry of the table test and the fuzz seeds.
type swapCase struct {
	name string
	data []byte
	k    int
	t    float64
}

// swapCorpus builds the edge cases the merge can get wrong: ties across the
// three merged pieces, empty pieces, budgets at both ends, infinities.
func swapCorpus() []swapCase {
	rng := rand.New(rand.NewSource(41))
	const inf = 0xFFFF
	// gen draws nc clients; levels bounds the distinct values (small =
	// heavy ties), col picks the candidate's cost from the client's d1.
	gen := func(nc, k, levels int, col func(d1 uint16) uint16) []byte {
		var data []byte
		for j := 0; j < nc; j++ {
			d1 := uint16(rng.Intn(levels))
			data = append(data, encodeSwapClient(d1, uint16(rng.Intn(levels)), col(d1), byte(rng.Intn(k)))...)
		}
		return data
	}
	random := func(levels int) func(uint16) uint16 {
		return func(uint16) uint16 { return uint16(rng.Intn(levels)) }
	}
	cases := []swapCase{
		{"spread", gen(300, 10, 60000, random(60000)), 10, 12},
		{"spread-t0", gen(120, 5, 60000, random(60000)), 5, 0},
		{"spread-fractional-t", gen(120, 5, 60000, random(60000)), 5, 2.5},
		{"spread-sub-unit-t", gen(50, 3, 60000, random(60000)), 3, 0.25},
		{"ties", gen(200, 6, 5, random(5)), 6, 7},
		{"ties-fractional-t", gen(200, 6, 3, random(3)), 6, 2.5},
		{"col-equals-d1", gen(150, 4, 40, func(d1 uint16) uint16 { return d1 }), 4, 9},
		{"captures-nobody", gen(150, 4, 500, func(uint16) uint16 { return inf }), 4, 9},
		{"captures-everybody", gen(150, 4, 500, func(d1 uint16) uint16 { return d1 / 3 }), 4, 9},
		{"all-but-one-dropped", gen(40, 4, 500, random(500)), 4, 39},
		{"all-dropped", gen(40, 4, 500, random(500)), 4, 40},
		{"budget-over-nc", gen(40, 4, 500, random(500)), 4, 64.5},
		{"one-client", gen(1, 1, 500, random(500)), 1, 0},
		{"k1", gen(80, 1, 500, random(500)), 1, 3},
	}
	// Every point three times: each value ties with its own copies.
	var dup []byte
	for j := 0; j < 60; j++ {
		c := encodeSwapClient(uint16(rng.Intn(900)), uint16(rng.Intn(900)), uint16(rng.Intn(900)), byte(rng.Intn(5)))
		dup = append(dup, c...)
		dup = append(dup, c...)
		dup = append(dup, c...)
	}
	cases = append(cases, swapCase{"duplicates", dup, 5, 6})
	// Zero distances (clients sitting on centers and on the candidate).
	zeros := gen(90, 3, 4, func(uint16) uint16 { return 0 })
	cases = append(cases, swapCase{"zeros", zeros, 3, 4})
	// Positions 3..6 of 7 have no client: empty G_p.
	empty := gen(100, 3, 700, random(700))
	cases = append(cases, swapCase{"empty-groups", empty, 7, 5})
	// Unreachable pairs of a graph metric: +Inf columns, second-nearest
	// costs and whole clients.
	var infs []byte
	for j := 0; j < 120; j++ {
		d1, gap, col, a1 := uint16(rng.Intn(300)), uint16(rng.Intn(300)), uint16(rng.Intn(300)), byte(rng.Intn(4))
		switch rng.Intn(5) {
		case 0:
			col = inf
		case 1:
			gap = inf
		case 2:
			a1 = 0xFF
		}
		infs = append(infs, encodeSwapClient(d1, gap, col, a1)...)
	}
	cases = append(cases, swapCase{"unreachable", infs, 4, 30}, swapCase{"unreachable-t0", infs, 4, 0})
	return cases
}

// byD1Desc is the client order descend hands swapEval.round: the one
// Scratch.eval sorted.
func (r swapRound) byD1Desc() []int {
	ord := make([]int, len(r.d1))
	for j := range ord {
		ord[j] = j
	}
	sort.Slice(ord, func(a, b int) bool { return r.d1[ord[a]] > r.d1[ord[b]] })
	return ord
}

// cost is one slot the way swaps prices it against a fixed bound: discarded
// on its lower bound alone, walked otherwise.
func (e *swapEval) cost(si int, col []float64, p int, t, bound float64) float64 {
	if e.lower(si, col, p, t) > bound {
		return math.Inf(1)
	}
	return e.exact(si, col, p, t, bound)
}

// checkSwapEval holds every slot of one decoded round to the sorted walk:
// the same float bit for bit with no early stop, and under a bound either
// that float or +Inf with the sorted-walk cost >= bound — which holds lower
// to the walk too: a bound above it discards a slot the table says to keep.
func checkSwapEval(t *testing.T, data []byte, k int, budget float64) {
	t.Helper()
	r := decodeSwapRound(data, k)
	if len(r.col) == 0 {
		return
	}
	ev := newSwapEval(len(r.col), k)
	ev.round(r.d1, r.a1, r.d2, r.byD1Desc())
	const si = topE - 1
	ev.candidate(si, r.col)
	for p := 0; p < k; p++ {
		want := r.sortedWalkCost(p, budget)
		got := ev.cost(si, r.col, p, budget, math.Inf(1))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%d t=%v: merge cost %v (%#x) != sorted walk %v (%#x)", p, budget, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for _, bound := range []float64{0, want / 2, math.Nextafter(want, 0), want, math.Nextafter(want, math.Inf(1)), 2*want + 1} {
			got := ev.cost(si, r.col, p, budget, bound)
			switch {
			case math.Float64bits(got) == math.Float64bits(want):
			case !math.IsInf(got, 1):
				t.Fatalf("p=%d t=%v bound=%v: merge cost %v is neither the sorted walk's %v nor +Inf", p, budget, bound, got, want)
			case want < bound:
				t.Fatalf("p=%d t=%v bound=%v: stopped early on a slot whose exact cost %v is below the bound", p, budget, bound, want)
			}
		}
	}
}

// TestSwapEvalMatchesSortedWalk is the evaluator's contract on the corpus
// plus seeded random rounds.
func TestSwapEvalMatchesSortedWalk(t *testing.T) {
	for _, c := range swapCorpus() {
		t.Run(c.name, func(t *testing.T) { checkSwapEval(t, c.data, c.k, c.t) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 300; trial++ {
			data := make([]byte, swapClientBytes*(1+rng.Intn(90)))
			rng.Read(data)
			if trial%2 == 0 { // few distinct values: ties everywhere
				for i := range data {
					data[i] &= 0x03
				}
			}
			nc := len(data) / swapClientBytes
			checkSwapEval(t, data, 1+rng.Intn(12), rng.Float64()*float64(nc+2))
		}
	})
}

// checkSwapRound holds a whole two-phase round to the sorted walk: three
// candidates cut from the decoded column, every slot's lower bound at or
// below its exact float, and — against a current cost of +Inf, the round's
// minimum, the float just above it and the median slot — every cell swaps
// leaves either the exact float or +Inf, +Inf only where the exact float is
// >= the current cost or strictly above the round's minimum, so that the
// first-strict-win fold takes the slot and cost it takes on the exact table.
func checkSwapRound(t *testing.T, data []byte, k int, budget float64) {
	t.Helper()
	r := decodeSwapRound(data, k)
	nc := len(r.col)
	if nc == 0 {
		return
	}
	cols := [][]float64{r.col, make([]float64, nc), make([]float64, nc)}
	for j := range r.col {
		cols[1][j], cols[2][j] = r.col[(j+1)%nc], r.col[nc-1-j]
	}
	ev := newSwapEval(nc, k)
	ev.round(r.d1, r.a1, r.d2, r.byD1Desc())
	exact := make([]float64, len(cols)*k)
	for si, col := range cols {
		ev.candidate(si, col)
		for p := 0; p < k; p++ {
			want := swapRound{col: col, d1: r.d1, d2: r.d2, a1: r.a1}.sortedWalkCost(p, budget)
			exact[si*k+p] = want
			if lb := ev.lower(si, col, p, budget); !(lb <= want) {
				t.Fatalf("candidate %d p=%d t=%v: lower bound %v above the sorted walk's %v", si, p, budget, lb, want)
			}
		}
	}
	fold := func(cur float64, cells []float64) (int, float64) {
		best, at := cur, -1
		for slot, c := range cells {
			if c < best {
				best, at = c, slot
			}
		}
		return at, best
	}
	_, lowest := fold(math.Inf(1), exact)
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	costs := make([]float64, len(exact))
	for _, cur := range []float64{math.Inf(1), lowest, math.Nextafter(lowest, math.Inf(1)), sorted[len(sorted)/2]} {
		walked := ev.swaps(1, cols, budget, cur, costs)
		if walked < 0 || walked > len(costs) {
			t.Fatalf("cur=%v: walked %d of %d slots", cur, walked, len(costs))
		}
		for slot, got := range costs {
			want := exact[slot]
			switch {
			case math.Float64bits(got) == math.Float64bits(want):
			case !math.IsInf(got, 1):
				t.Fatalf("cur=%v slot %d: cell %v is neither the sorted walk's %v nor +Inf", cur, slot, got, want)
			case want < cur && !(want > lowest):
				t.Fatalf("cur=%v slot %d: discarded a slot at the round's minimum %v", cur, slot, want)
			}
		}
		gotAt, gotBest := fold(cur, costs)
		wantAt, wantBest := fold(cur, exact)
		if gotAt != wantAt || math.Float64bits(gotBest) != math.Float64bits(wantBest) {
			t.Fatalf("cur=%v: fold takes slot %d at %v, on the exact table slot %d at %v", cur, gotAt, gotBest, wantAt, wantBest)
		}
	}
}

// TestSwapLowerBound is the contract of lower and of the bound-ordered
// phase 2, on the corpus (ties, +Inf columns / second-nearest / whole
// clients, empty groups, budgets 0, fractional and >= nc) and on the seeded
// rounds of TestSwapEvalMatchesSortedWalk.
func TestSwapLowerBound(t *testing.T) {
	for _, c := range swapCorpus() {
		t.Run(c.name, func(t *testing.T) { checkSwapRound(t, c.data, c.k, c.t) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 300; trial++ {
			data := make([]byte, swapClientBytes*(1+rng.Intn(90)))
			rng.Read(data)
			if trial%2 == 0 { // few distinct values: ties everywhere
				for i := range data {
					data[i] &= 0x03
				}
			}
			nc := len(data) / swapClientBytes
			checkSwapRound(t, data, 1+rng.Intn(12), rng.Float64()*float64(nc+2))
		}
	})
}

// FuzzSwapEval mutates the table test's corpus under the same oracle.
func FuzzSwapEval(f *testing.F) {
	for _, c := range swapCorpus() {
		f.Add(c.data, uint8(c.k), c.t)
	}
	f.Fuzz(func(t *testing.T, data []byte, k uint8, budget float64) {
		if k == 0 || k > 32 || len(data) > swapClientBytes*512 || !(budget >= 0) || math.IsInf(budget, 1) {
			t.Skip()
		}
		checkSwapEval(t, data, int(k), budget)
		checkSwapRound(t, data, int(k), budget)
	})
}
