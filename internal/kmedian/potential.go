package kmedian

import (
	"math"

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
	// One scratch per concurrent worker, made on first use.
	free chan *potScratch
}

// potScratch is one worker's buffers: the candidate's k center thresholds
// (behind a never-skip slot for a1 = -1), the surviving clients, their costs.
type potScratch struct {
	thr []float64
	idx []int32
	col []float64
}

func newPotScan(c metric.Costs, d1 []float64, a1 []int, inW []float64, workers int) *potScan {
	ps := &potScan{
		c: c, power: metric.TrianglePower(c), d1: d1, a1: a1, inW: inW,
		live: make([]int32, 0, len(d1)),
		free: make(chan *potScratch, par.Resolve(workers)),
	}
	if ps.power > 0 {
		ps.r2 = make([]float64, len(d1))
	}
	return ps
}

// begin installs a round: d1, a1 and inW now describe centers.
func (ps *potScan) begin(centers []int) {
	ps.centers = centers
	ps.live = ps.live[:0]
	for j, w := range ps.inW {
		if w > 0 {
			ps.live = append(ps.live, int32(j))
		}
	}
	for j := range ps.r2 {
		ps.r2[j] = twiceDist(ps.d1[j], ps.power)
	}
}

// potential returns candidate f's add potential for the installed round.
// Safe for concurrent calls.
func (ps *potScan) potential(f int) float64 {
	var sc *potScratch
	select {
	case sc = <-ps.free:
	default:
		nc := len(ps.d1)
		sc = &potScratch{thr: make([]float64, len(ps.centers)+1), idx: make([]int32, nc), col: make([]float64, nc)}
	}
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
	ps.free <- sc
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

// survivors compacts into sc.idx, ascending, the live clients whose term in
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
// The loop stores every client and advances on the comparison, which
// compiles to a flag-to-register add: the outcome flips every few clients,
// and a skip mask tested in the evaluation loop instead costs a mispredicted
// branch each time (measured on means-hidim-shaped jobs: no bound 298 ms,
// the bound as a mask 275, as this compacted list 200).
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
	idx, a1, r2 := sc.idx, ps.a1, ps.r2
	n := 0
	for _, j := range ps.live {
		idx[n] = j
		keep := 0
		if thr[a1[j]+1] < r2[j] {
			keep = 1
		}
		n += keep
	}
	return idx[:n]
}
