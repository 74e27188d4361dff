package kmedian

import (
	"math"
	"math/bits"

	"dpc/internal/metric"
	"dpc/internal/par"
)

// potScan is descend's potential scan: candidate f's add potential is the
// sum, in ascending client order, of inW[j]*(d1[j]-Cost(j,f)) over the
// clients with inlier weight where that is positive. It evaluates one cost
// column per candidate (metric.CostColumn), and where the oracle declares a
// triangle power it first drops from the column every client whose term is
// proven <= 0 by a bound through the client's own nearest center (survivors);
// with no declared power the column is every live client. Either way the sum
// runs over the contributing clients in the same order, so the potentials
// are bit for bit those of descendReference's full scan.
type potScan struct {
	c metric.Costs
	// power is metric.TrianglePower(c): Cost is a metric (1) or the square
	// of one (2) over an index set clients and facilities share; 0 = unknown.
	power int
	// descend's round state, shared: cost to the nearest current center, its
	// position in centers (-1: no finite cost), and the inlier weight.
	d1  []float64
	a1  []int
	inW []float64

	centers []int
	live    []int32   // clients with inlier weight, ascending
	r2      []float64 // power > 0: twice the distance to the nearest center
	// power > 0: groups[p+1] holds the live clients with a1 = p and a
	// non-NaN r2, with their r2, by r2 descending, in slices of byA1.
	groups [][]r2Client
	byA1   []r2Client
	// scr[b] is the scratch of potentials' b-th par.ForBlocks block.
	scr []*potScratch
}

// r2Client is a live client and its r2.
type r2Client struct {
	r2 float64
	j  int32
}

// potScratch is one block's buffers: the candidate's k center thresholds
// (behind a slot for a1 = -1 that drops nobody), the survivors' bitset, the
// surviving clients and their costs.
type potScratch struct {
	thr  []float64
	mark []uint64
	idx  []int32
	col  []float64
}

func newPotScan(c metric.Costs, d1 []float64, a1 []int, inW []float64) *potScan {
	ps := &potScan{
		c: c, power: metric.TrianglePower(c), d1: d1, a1: a1, inW: inW,
		live: make([]int32, 0, len(d1)),
	}
	if ps.power > 0 {
		ps.r2 = make([]float64, len(d1))
		ps.byA1 = make([]r2Client, len(d1))
	}
	return ps
}

// begin installs a round: d1, a1 and inW now describe centers, and order
// is the clients by d1 descending (Scratch.eval's order).
func (ps *potScan) begin(centers []int, order []int) {
	ps.centers = centers
	ps.live = ps.live[:0]
	for j, w := range ps.inW {
		if w > 0 {
			ps.live = append(ps.live, int32(j))
		}
	}
	if ps.power == 0 {
		return
	}
	r2 := ps.r2
	for j := range r2 {
		r2[j] = twiceDist(ps.d1[j], ps.power)
	}
	// Group the live clients by a1 in d1-descending order, which is r2
	// descending — twiceDist is monotone in d1 — once the +Inf it gives a
	// tiny d1 goes first. A NaN r2 passes no threshold and joins no group.
	// The groups share one buffer: group g is byA1[start[g]:start[g+1]].
	start := make([]int, len(centers)+2)
	for _, j := range ps.live {
		if !math.IsNaN(r2[j]) {
			start[ps.a1[j]+2]++
		}
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	ps.groups = ps.groups[:0]
	for g := 0; g+1 < len(start); g++ {
		ps.groups = append(ps.groups, ps.byA1[start[g]:start[g]:start[g+1]])
	}
	for _, inf := range []bool{true, false} {
		for _, j := range order {
			if x := r2[j]; ps.inW[j] > 0 && !math.IsNaN(x) && math.IsInf(x, 1) == inf {
				g := ps.a1[j] + 1
				ps.groups[g] = append(ps.groups[g], r2Client{r2: x, j: int32(j)})
			}
		}
	}
}

// potentials writes candidate cands[i]'s add potential for the installed
// round into pots[i]. The candidates run in par.ForBlocks blocks, each with
// a scratch of its own.
func (ps *potScan) potentials(workers int, cands []int, pots []float64) {
	nc := len(ps.d1)
	for len(ps.scr)*par.BlockSize < len(cands) {
		ps.scr = append(ps.scr, &potScratch{
			thr:  make([]float64, len(ps.centers)+1),
			mark: make([]uint64, (nc+63)/64), idx: make([]int32, nc), col: make([]float64, nc),
		})
	}
	par.ForBlocks(workers, len(cands), func(lo, hi int) {
		sc := ps.scr[lo/par.BlockSize]
		for i := lo; i < hi; i++ {
			pots[i] = ps.potential(sc, cands[i])
		}
	})
}

// potential returns candidate f's add potential for the installed round,
// using sc's buffers.
func (ps *potScan) potential(sc *potScratch, f int) float64 {
	idx := ps.live
	if ps.power > 0 {
		idx = ps.survivors(sc, f)
	}
	col := sc.col[:len(idx)]
	metric.CostColumn(ps.c, f, idx, col)
	var pot float64
	for i, j := range idx {
		if s := ps.d1[j] - col[i]; s > 0 {
			pot += ps.inW[j] * s
		}
	}
	return pot
}

// tinyDist is the distance below which the bound is not trusted: an L2
// distance that small came from an underflowed sum of squares (and squares
// to a subnormal under squared costs), so the relative-error argument of
// survivors does not cover it.
const tinyDist = 0x1p-500

// twiceDist returns 2*d(j,c) for a client at cost d1 from its nearest center
// c — d1 itself under a metric, its root under squared costs — or +Inf,
// "never drop", where d1 is +Inf (no finite center) or the distance is
// positive but below tinyDist.
func twiceDist(d1 float64, power int) float64 {
	d := d1
	if power == 2 {
		d = math.Sqrt(d1)
	}
	if d > 0 && d < tinyDist {
		return math.Inf(1)
	}
	return 2 * d
}

// survivors returns in sc.idx, ascending, the live clients whose term in
// candidate f's potential is not proven <= 0. Client j with nearest center
// c = centers[a1[j]] is dropped when d(f,c)*(1-1e-9) >= 2*d(j,c): then
// d(j,f) >= d(f,c) - d(j,c) >= d(j,c), so Cost(j,f) >= d1[j] and the term
// max(0, d1[j]-Cost(j,f)) is exactly zero.
//
// In floats: true distances obey the triangle inequality and the built-in
// metrics compute them within ~(dim+2)*2^-53 relative, so the 1e-9 deflation
// (metric.LBScale) dominates every rounding involved, the sqrt round trip of squared costs
// included, and the computed d(j,f) comes out strictly above the computed
// d(j,c); fl(x*x) is monotone, so the inequality survives squaring. A center
// distance that overflowed to +Inf proves nothing, and a client without a
// finite center (a1 = -1, r2 = +Inf) is never dropped.
//
// The survivors are exactly the live clients with thr[a1[j]+1] < r2[j] — a
// NaN on either side keeps nobody — and this finds them without reading the
// others: within a1's group, sorted by r2 descending, they are the prefix
// that ends at the first r2 the threshold reaches. Each group's prefix is
// marked in a bitset, and the bitset's words are read back in ascending
// order (and cleared), so the list, and with it every potential's order of
// additions, is the one a filter over live in client order makes. The
// clients read are the survivors plus one a group.
func (ps *potScan) survivors(sc *potScratch, f int) []int32 {
	thr := sc.thr
	thr[0] = math.Inf(-1)
	for p, cf := range ps.centers {
		d := ps.c.Cost(f, cf)
		if ps.power == 2 {
			d = math.Sqrt(d)
		}
		if math.IsInf(d, 1) {
			d = math.Inf(-1)
		}
		thr[p+1] = d * metric.LBScale
	}
	mark := sc.mark
	for g, grp := range ps.groups {
		t := thr[g]
		for _, c := range grp {
			if !(t < c.r2) {
				break
			}
			mark[c.j>>6] |= 1 << (c.j & 63)
		}
	}
	idx := sc.idx[:0]
	for w, word := range mark {
		for word != 0 {
			idx = append(idx, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
		mark[w] = 0
	}
	return idx
}
