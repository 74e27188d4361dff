// Package kcenter implements the k-center machinery the paper builds on:
// Gonzalez's farthest-first traversal [13] (the preclustering of
// Algorithm 2, which simultaneously yields local solutions and the slope
// witnesses l(i,q)), and a Charikar-et-al.-style greedy 3-approximation for
// the (k,t)-center problem with outliers [4] (the coordinator's final step),
// in a weighted variant so it can run on aggregated precluster centers.
//
// Every solver has two engines selected by Opt: the fast engine (default)
// materializes distance columns once and spreads independent scans over
// Opt.Workers goroutines, and the reference engine (Opt.Reference) is the
// seed implementation kept as the regression baseline. The two are
// bit-identical — all parallel reductions use fixed first-index
// tie-breaking — and the parity tests (engine_parity_test.go here,
// internal/bench's TestAllExperimentsQuick end to end) assert it.
package kcenter

import (
	"math"
	"sort"

	"dpc/internal/engine"
	"dpc/internal/metric"
	"dpc/internal/par"
)

// Opt selects the engine of a solver call. It is the consolidated engine
// knob set (see engine.Options): Workers bounds the fast engine's
// goroutines, Reference runs the seed sequential implementation, and the
// Index/Pivots knobs are honored by the callers that construct the space —
// the solvers themselves prune through whatever metric.DistPruner /
// metric.CostPruner the passed oracle implements, and never build indexes.
type Opt = engine.Options

// workers resolves the pool size: Reference mode always runs single-worker
// (the helpers without a dedicated reference body are bit-identical at any
// width, so one worker is the seed behavior).
func workers(o Opt) int {
	if o.Reference {
		return 1
	}
	return o.Workers
}

// Traversal is the result of a farthest-first traversal.
type Traversal struct {
	// Order lists the selected point indices in selection order.
	Order []int
	// Radii[r] is the insertion radius of Order[r]: its distance to the
	// previously selected points. Radii[0] is +Inf by convention. The
	// sequence is non-increasing from index 1 on, and Radii[r] is a lower
	// bound witness: any (r-1)-center solution has radius >= Radii[r]/2.
	Radii []float64
}

// Gonzalez runs farthest-first traversal on sp, selecting up to m points
// starting from the point `first`. Runtime O(m * n).
func Gonzalez(sp metric.Space, m, first int) Traversal {
	return GonzalezOpt(sp, m, first, Opt{})
}

// GonzalezOpt is Gonzalez with an engine selection.
func GonzalezOpt(sp metric.Space, m, first int, o Opt) Traversal {
	if o.Reference {
		return gonzalezReference(sp, m, first)
	}
	n := sp.N()
	if m > n {
		m = n
	}
	if m <= 0 || first < 0 || first >= n {
		return Traversal{}
	}
	order := make([]int, 0, m)
	radii := make([]float64, 0, m)
	dmin := make([]float64, n)
	for j := range dmin {
		dmin[j] = math.Inf(1)
	}
	// Per-block farthest candidates, folded in block order with strict
	// comparisons — exactly the sequential first-max scan.
	nb := (n + par.BlockSize - 1) / par.BlockSize
	blockFar := make([]float64, nb)
	blockNext := make([]int, nb)
	pr := metric.DistPrunerOf(sp)
	cur := first
	curR := math.Inf(1)
	for len(order) < m {
		order = append(order, cur)
		radii = append(radii, curR)
		c := cur
		par.ForBlocks(o.Workers, n, func(lo, hi int) {
			far, next := -1.0, -1
			for j := lo; j < hi; j++ {
				// A pruned pair is guaranteed d(j,c) >= dmin[j], so the
				// update below would not fire; skipping the evaluation
				// leaves dmin — and every later comparison — unchanged.
				if pr == nil || !pr.PruneDist(j, c, dmin[j]) {
					if d := sp.Dist(j, c); d < dmin[j] {
						dmin[j] = d
					}
				}
				if dmin[j] > far {
					far = dmin[j]
					next = j
				}
			}
			b := lo / par.BlockSize
			blockFar[b], blockNext[b] = far, next
		})
		far, next := -1.0, -1
		for b := 0; b < nb; b++ {
			if blockFar[b] > far {
				far, next = blockFar[b], blockNext[b]
			}
		}
		cur, curR = next, far
	}
	return Traversal{Order: order, Radii: radii}
}

// gonzalezReference is the seed implementation (regression baseline).
func gonzalezReference(sp metric.Space, m, first int) Traversal {
	n := sp.N()
	if m > n {
		m = n
	}
	if m <= 0 || first < 0 || first >= n {
		return Traversal{}
	}
	order := make([]int, 0, m)
	radii := make([]float64, 0, m)
	dmin := make([]float64, n)
	for j := range dmin {
		dmin[j] = math.Inf(1)
	}
	cur := first
	curR := math.Inf(1)
	for len(order) < m {
		order = append(order, cur)
		radii = append(radii, curR)
		// Update dmin against the newly selected point and find farthest.
		next, far := -1, -1.0
		for j := 0; j < n; j++ {
			if d := sp.Dist(j, cur); d < dmin[j] {
				dmin[j] = d
			}
			if dmin[j] > far {
				far = dmin[j]
				next = j
			}
		}
		cur, curR = next, far
	}
	return Traversal{Order: order, Radii: radii}
}

// AssignPrefix assigns every point of sp to its nearest center among the
// first r points of the traversal order. It returns the assignment (center
// position in Order, not point index), the weight attached to each center
// (unit weights when w == nil), and the maximum assignment distance.
func (tr Traversal) AssignPrefix(sp metric.Space, r int, w []float64) (assign []int, counts []float64, maxDist float64) {
	return tr.AssignPrefixOpt(sp, r, w, Opt{})
}

// AssignPrefixOpt is AssignPrefix with an engine selection: the per-point
// nearest-center scans run on o.Workers goroutines, while the weight
// accumulation folds sequentially in point order so weighted counts sum in
// exactly the reference order.
func (tr Traversal) AssignPrefixOpt(sp metric.Space, r int, w []float64, o Opt) (assign []int, counts []float64, maxDist float64) {
	if r > len(tr.Order) {
		r = len(tr.Order)
	}
	n := sp.N()
	assign = make([]int, n)
	counts = make([]float64, r)
	dist := make([]float64, n)
	pr := metric.DistPrunerOf(sp)
	par.For(workers(o), n, func(j int) {
		best, bd := -1, math.Inf(1)
		for c := 0; c < r; c++ {
			// A candidate proven no nearer than the current best cannot win
			// the strict comparison; skipping it is result-identical.
			if pr != nil && pr.PruneDist(j, tr.Order[c], bd) {
				continue
			}
			if d := sp.Dist(j, tr.Order[c]); d < bd {
				bd = d
				best = c
			}
		}
		assign[j] = best
		dist[j] = bd
	})
	for j := 0; j < n; j++ {
		wj := 1.0
		if w != nil {
			wj = w[j]
		}
		if assign[j] >= 0 {
			counts[assign[j]] += wj
		}
		if dist[j] > maxDist {
			maxDist = dist[j]
		}
	}
	return assign, counts, maxDist
}

// Solution is a (k,t)-center solution.
type Solution struct {
	Centers []int   // facility indices
	Radius  float64 // objective value after discarding t units of weight
}

// EvalMax returns the (k,t)-center objective of the given centers: assign
// each client to its cheapest facility, discard up to t units of the
// largest connection costs, and return the largest remaining cost.
// w == nil means unit weights.
func EvalMax(c metric.Costs, w []float64, centers []int, t float64) float64 {
	return EvalMaxOpt(c, w, centers, t, Opt{})
}

// EvalMaxOpt is EvalMax with the per-client scans on o.Workers goroutines
// (bit-identical for every worker count).
func EvalMaxOpt(c metric.Costs, w []float64, centers []int, t float64, o Opt) float64 {
	n := c.Clients()
	type cd struct{ d, w float64 }
	ds := make([]cd, n)
	cp := metric.CostPrunerOf(c)
	par.For(workers(o), n, func(j int) {
		dmin := math.Inf(1)
		for _, f := range centers {
			if cp != nil && cp.PruneCost(j, f, dmin) {
				continue
			}
			if d := c.Cost(j, f); d < dmin {
				dmin = d
			}
		}
		wj := 1.0
		if w != nil {
			wj = w[j]
		}
		ds[j] = cd{d: dmin, w: wj}
	})
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	budget := t
	for _, x := range ds {
		if x.w > budget+1e-12 {
			return x.d
		}
		budget -= x.w
	}
	return 0
}

// Partial solves the weighted (k,t)-center problem with the greedy
// disk-cover algorithm of Charikar, Khuller, Mount and Narasimhan [4]:
// binary-search the optimal radius over the candidate set of client-facility
// distances; for a guess r, greedily pick the facility whose r-ball covers
// the most uncovered client weight and remove the 3r-ball around it, k
// times; the guess is feasible when at most t weight remains uncovered. The
// returned radius is the exact objective of the selected centers (<= 3 OPT).
//
// Runtime O(nc * nf * log(nc*nf) + feasibility * log(candidates)).
func Partial(c metric.Costs, w []float64, k int, t float64) Solution {
	return PartialOpt(c, w, k, t, Opt{})
}

// maxPartialMatrix bounds the dense distance matrix the fast engine
// materializes, in cells. The transient peak is ~4x the matrix itself:
// the cols columns plus the candidate-radii copy (8 bytes/cell each) plus
// the radix sort's two uint64 buffers — about 512 MiB at this cap. Larger
// instances fall back to the oracle-scanning reference engine.
const maxPartialMatrix = 16 << 20

// PartialOpt is Partial with an engine selection. The fast engine fills the
// client/facility distance matrix once (a blocked parallel fill over
// facilities — this is the cached distance oracle of the coordinator) and
// runs every feasibility scan on the columns; greedy picks break ties
// toward the lowest facility index exactly as the reference scan does.
func PartialOpt(c metric.Costs, w []float64, k int, t float64, o Opt) Solution {
	nc, nf := c.Clients(), c.Facilities()
	if o.Reference || nc*nf > maxPartialMatrix {
		return partialReference(c, w, k, t)
	}
	if nc == 0 || k <= 0 || nf == 0 {
		return Solution{}
	}
	weight := func(j int) float64 {
		if w == nil {
			return 1
		}
		return w[j]
	}
	var totalW float64
	for j := 0; j < nc; j++ {
		totalW += weight(j)
	}
	if totalW <= t {
		return Solution{Centers: []int{0}, Radius: 0}
	}
	// One distance column per facility, filled in parallel — every
	// feasibility scan below is then a pure array walk.
	cols := make([][]float64, nf)
	par.For(o.Workers, nf, func(f int) {
		col := make([]float64, nc)
		for j := 0; j < nc; j++ {
			col[j] = c.Cost(j, f)
		}
		cols[f] = col
	})
	// Candidate radii: every distinct client-facility distance, collected
	// in the reference order (client-major). The radix sort produces the
	// same ascending value sequence the reference comparison sort does, so
	// the dedup walk and the binary search see identical candidates.
	cand := make([]float64, 0, nc*nf)
	for j := 0; j < nc; j++ {
		for f := 0; f < nf; f++ {
			cand = append(cand, cols[f][j])
		}
	}
	par.SortFloats(cand)
	cand = dedupFloats(cand)

	gains := make([]float64, nf)
	uncBuf := make([]int, nc)
	feasible := func(r float64) ([]int, bool) {
		// unc is the uncovered-client list, kept in ascending order so
		// every weight sum visits clients exactly as the reference
		// covered[]-flag scan does.
		unc := uncBuf[:nc]
		for j := range unc {
			unc[j] = j
		}
		remaining := totalW
		centers := make([]int, 0, k)
		for it := 0; it < k && remaining > t+1e-12; it++ {
			par.For(o.Workers, nf, func(f int) {
				col := cols[f]
				gain := 0.0
				for _, j := range unc {
					if col[j] <= r {
						gain += weight(j)
					}
				}
				gains[f] = gain
			})
			bestF, bestGain := -1, -1.0
			for f := 0; f < nf; f++ {
				if gains[f] > bestGain {
					bestGain, bestF = gains[f], f
				}
			}
			if bestF < 0 {
				break
			}
			centers = append(centers, bestF)
			col := cols[bestF]
			kept := unc[:0]
			for _, j := range unc {
				if col[j] <= 3*r {
					remaining -= weight(j)
				} else {
					kept = append(kept, j)
				}
			}
			unc = kept
		}
		return centers, remaining <= t+1e-12
	}

	lo, hi := 0, len(cand)-1
	bestCenters, ok := feasible(cand[hi])
	if !ok {
		// Even the largest candidate fails (can happen only with k <
		// effective clusters); fall back to greedy top-k facilities.
		return Solution{Centers: bestCenters, Radius: EvalMaxOpt(c, w, bestCenters, t, o)}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if centers, ok := feasible(cand[mid]); ok {
			bestCenters = centers
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return Solution{Centers: bestCenters, Radius: EvalMaxOpt(c, w, bestCenters, t, o)}
}

// partialReference is the seed implementation of Partial (regression
// baseline; also the fallback for instances whose distance matrix would
// not fit maxPartialMatrix).
func partialReference(c metric.Costs, w []float64, k int, t float64) Solution {
	nc, nf := c.Clients(), c.Facilities()
	if nc == 0 || k <= 0 || nf == 0 {
		return Solution{}
	}
	weight := func(j int) float64 {
		if w == nil {
			return 1
		}
		return w[j]
	}
	var totalW float64
	for j := 0; j < nc; j++ {
		totalW += weight(j)
	}
	if totalW <= t {
		return Solution{Centers: []int{0}, Radius: 0}
	}
	// Candidate radii: every distinct client-facility distance (the optimal
	// radius is one of them when centers are facility points).
	cand := make([]float64, 0, nc*nf)
	for j := 0; j < nc; j++ {
		for f := 0; f < nf; f++ {
			cand = append(cand, c.Cost(j, f))
		}
	}
	sort.Float64s(cand)
	cand = dedupFloats(cand)

	feasible := func(r float64) ([]int, bool) {
		covered := make([]bool, nc)
		remaining := totalW
		centers := make([]int, 0, k)
		for it := 0; it < k && remaining > t+1e-12; it++ {
			bestF, bestGain := -1, -1.0
			for f := 0; f < nf; f++ {
				gain := 0.0
				for j := 0; j < nc; j++ {
					if !covered[j] && c.Cost(j, f) <= r {
						gain += weight(j)
					}
				}
				if gain > bestGain {
					bestGain, bestF = gain, f
				}
			}
			if bestF < 0 {
				break
			}
			centers = append(centers, bestF)
			for j := 0; j < nc; j++ {
				if !covered[j] && c.Cost(j, bestF) <= 3*r {
					covered[j] = true
					remaining -= weight(j)
				}
			}
		}
		return centers, remaining <= t+1e-12
	}

	lo, hi := 0, len(cand)-1
	bestCenters, ok := feasible(cand[hi])
	if !ok {
		// Even the largest candidate fails (can happen only with k <
		// effective clusters); fall back to greedy top-k facilities.
		return Solution{Centers: bestCenters, Radius: EvalMaxOpt(c, w, bestCenters, t, Opt{Reference: true})}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if centers, ok := feasible(cand[mid]); ok {
			bestCenters = centers
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return Solution{Centers: bestCenters, Radius: EvalMaxOpt(c, w, bestCenters, t, Opt{Reference: true})}
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
