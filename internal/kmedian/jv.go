package kmedian

import (
	"math"
	"sort"

	"dpc/internal/metric"
	"dpc/internal/par"
)

// jvOrders is the lambda-independent edge structure of the dual ascent:
// every facility's connection-cost column and its clients sorted by that
// cost. JV's binary search probes dozens of facility prices on the same
// instance, so the fast engine computes this once and shares it across
// every probe (the columns and sorts are per-facility independent and
// spread over the worker pool); the reference engine rebuilds it per probe,
// as the seed implementation did.
type jvOrders struct {
	byCost [][]int
	costs  [][]float64
}

// jvPrecompute builds the per-facility sorted client orders. A cancelled
// opt.Ctx skips the remaining facility columns (leaving them nil); jvRun
// never touches those rows because its event loop breaks on the same
// cancelled context before any event fires.
func jvPrecompute(c metric.Costs, opt Options) *jvOrders {
	nc, nf := c.Clients(), c.Facilities()
	ord := &jvOrders{byCost: make([][]int, nf), costs: make([][]float64, nf)}
	par.For(opt.Workers, nf, func(f int) {
		if opt.canceled() {
			return
		}
		idx := make([]int, nc)
		cf := make([]float64, nc)
		for j := 0; j < nc; j++ {
			idx[j] = j
			cf[j] = c.Cost(j, f)
		}
		sort.Slice(idx, func(a, b int) bool { return cf[idx[a]] < cf[idx[b]] })
		ord.byCost[f] = idx
		ord.costs[f] = cf
	})
	return ord
}

// jvResult is the outcome of one primal-dual run at a fixed facility price.
type jvResult struct {
	open      []int   // facilities surviving the pruning, in opening order
	outlier   []bool  // clients still active (unfrozen) when the ascent stopped
	numOpen   int     // len(open)
	outlierW  float64 // total active weight at stop
	stopTheta float64 // dual time at stop
}

// jvRun performs the Jain-Vazirani dual ascent [17] with uniform facility
// opening cost lambda, stopping early once the remaining active (unfrozen)
// client weight is at most stopW — the outlier adaptation observed in [4]
// and used by Theorem 3.1: "we can simply stop the algorithm when there are
// t points unprocessed". The unfrozen clients become the outliers.
//
// All active clients raise their dual alpha_j at unit rate (so alpha_j =
// theta for active j). A facility opens when its collected surplus
// sum_j w_j * max(0, alpha_j - c_jf) reaches lambda; opening freezes every
// active client with a tight edge. After the ascent, temporarily open
// facilities are pruned to a maximal independent set of the conflict graph
// (two facilities conflict when some client contributes positively to
// both), greedily in opening order.
func jvRun(c metric.Costs, w []float64, lambda, stopW float64, opt Options, ord *jvOrders) jvResult {
	workers := opt.Workers
	nc, nf := c.Clients(), c.Facilities()
	active := make([]bool, nc)
	alpha := make([]float64, nc)
	activeW := 0.0
	for j := 0; j < nc; j++ {
		active[j] = true
		activeW += weight(w, j)
	}
	if ord == nil {
		ord = jvPrecompute(c, opt)
	}
	byCost, costs := ord.byCost, ord.costs
	frozenContrib := make([]float64, nf) // locked surplus from frozen clients
	isOpen := make([]bool, nf)
	var openOrder []int
	theta := 0.0

	freeze := func(j int, a float64) {
		active[j] = false
		alpha[j] = a
		activeW -= weight(w, j)
		par.For(workers, nf, func(f int) {
			if costs[f] == nil {
				return // column skipped by a cancelled precompute
			}
			if s := a - costs[f][j]; s > 0 {
				frozenContrib[f] += weight(w, j) * s
			}
		})
	}

	// nextFacilityEvent returns the earliest time >= theta at which an
	// unopened facility becomes fully paid, or +Inf. The per-facility
	// breakpoint walks are independent; the reduction breaks ties toward
	// the lowest facility index, like the sequential scan.
	facilityTime := func(f int) float64 {
		if isOpen[f] {
			return math.Inf(1)
		}
		// Walk breakpoints of P_f(th) = frozenContrib + sum over active
		// clients with c <= th of w*(th - c).
		W, S := 0.0, 0.0
		tf := math.Inf(1)
		order := byCost[f]
		for i := 0; i <= len(order); i++ {
			segEnd := math.Inf(1)
			if i < len(order) {
				segEnd = costs[f][order[i]]
			}
			if W > 0 {
				th := (lambda - frozenContrib[f] + S) / W
				if th < theta {
					th = theta
				}
				if th <= segEnd {
					tf = th
					break
				}
			} else if frozenContrib[f] >= lambda {
				tf = theta
				break
			}
			if i < len(order) {
				j := order[i]
				if active[j] {
					W += weight(w, j)
					S += weight(w, j) * costs[f][j]
				}
			}
		}
		return tf
	}
	nextFacilityEvent := func() (float64, int) {
		f, tf := par.MinIndex(workers, nf, facilityTime)
		if math.IsInf(tf, 1) {
			return tf, -1
		}
		return tf, f
	}

	// nextClientEvent returns the earliest time >= theta at which an active
	// client reaches a tight edge to an open facility, or +Inf; ties break
	// toward the lowest client index, like the sequential scan.
	clientTime := func(j int) float64 {
		if !active[j] {
			return math.Inf(1)
		}
		bestT := math.Inf(1)
		for f := 0; f < nf; f++ {
			if !isOpen[f] {
				continue
			}
			t := costs[f][j]
			if t < theta {
				t = theta
			}
			if t < bestT {
				bestT = t
			}
		}
		return bestT
	}
	nextClientEvent := func() (float64, int) {
		j, tc := par.MinIndex(workers, nc, clientTime)
		if math.IsInf(tc, 1) {
			return tc, -1
		}
		return tc, j
	}

	const eps = 1e-12
	for activeW > stopW+eps {
		if opt.canceled() {
			break // preempted mid-ascent: prune what opened so far and exit
		}
		tf, f := nextFacilityEvent()
		tc, j := nextClientEvent()
		if math.IsInf(tf, 1) && math.IsInf(tc, 1) {
			break // no facilities at all
		}
		if tf <= tc {
			theta = tf
			isOpen[f] = true
			openOrder = append(openOrder, f)
			for jj := 0; jj < nc; jj++ {
				if active[jj] && costs[f][jj] <= theta+eps {
					freeze(jj, theta)
					if activeW <= stopW+eps {
						break
					}
				}
			}
		} else {
			theta = tc
			freeze(j, theta)
		}
	}

	// Pruning: greedy maximal independent set in opening order. Client j's
	// effective dual is alpha_j if frozen, theta if still active.
	effAlpha := func(j int) float64 {
		if active[j] {
			return theta
		}
		return alpha[j]
	}
	conflicts := func(f, g int) bool {
		for j := 0; j < nc; j++ {
			a := effAlpha(j)
			if a > costs[f][j]+eps && a > costs[g][j]+eps {
				return true
			}
		}
		return false
	}
	var open []int
	for _, f := range openOrder {
		ok := true
		for _, g := range open {
			if conflicts(f, g) {
				ok = false
				break
			}
		}
		if ok {
			open = append(open, f)
		}
	}
	out := make([]bool, nc)
	copy(out, active)
	return jvResult{open: open, outlier: out, numOpen: len(open), outlierW: activeW, stopTheta: theta}
}

// JV solves the (k,t)-median problem with the Lagrangian relaxation: binary
// search on the uniform facility price lambda until the pruned primal-dual
// solution brackets k facilities, then round per Appendix B. The rounding
// here is derandomized: the convex-combination argument of the paper proves
// one of a small family of candidate center sets is good, so we evaluate
// all of them and keep the cheapest feasible one.
//
// Returned solution has at most k centers; its Cost is evaluated with
// outlier budget (1+eps)t (set eps = 0 for the unicriterion evaluation).
func JV(c metric.Costs, w []float64, k int, t float64, eps float64, opt Options) Solution {
	if opt.Reference {
		// The reference baseline is sequential: without this, Workers=0
		// would resolve to NumCPU inside the parallel loops.
		opt.Workers = 1
	}
	nc, nf := c.Clients(), c.Facilities()
	if nc == 0 || nf == 0 || k <= 0 {
		return Eval(c, w, nil, t)
	}
	if TotalWeight(c, w) <= t {
		return Eval(c, w, nil, t)
	}
	if k >= nf {
		all := make([]int, nf)
		for f := range all {
			all[f] = f
		}
		return Eval(c, w, all, t*(1+eps))
	}
	budget := t * (1 + eps)

	// lambda = 0 opens ~one facility per client; very large lambda opens one.
	var maxCost float64
	for j := 0; j < nc; j++ {
		if opt.canceled() {
			break // preempted: any finite bracket works for a doomed search
		}
		for f := 0; f < nf; f++ {
			if x := c.Cost(j, f); x > maxCost {
				maxCost = x
			}
		}
	}
	lo, hi := 0.0, (TotalWeight(c, w)+1)*(maxCost+1)

	var small, large *jvResult // small: <= k facilities; large: > k
	var ord *jvOrders
	if !opt.Reference {
		ord = jvPrecompute(c, opt)
	}
	run := func(lambda float64) jvResult { return jvRun(c, w, lambda, t, opt, ord) }

	rLo := run(lo)
	if rLo.numOpen <= k { // even free facilities give <= k: done
		return Eval(c, w, rLo.open, budget)
	}
	large = &rLo
	rHi := run(hi)
	small = &rHi
	for iter := 0; iter < 60 && hi-lo > 1e-9*(1+hi); iter++ {
		if opt.canceled() {
			break // preempted: round with the brackets probed so far
		}
		mid := (lo + hi) / 2
		r := run(mid)
		if r.numOpen == k {
			return Eval(c, w, r.open, budget)
		}
		if r.numOpen > k {
			large, lo = &r, mid
		} else {
			small, hi = &r, mid
		}
	}

	// Round: candidates per Appendix B's convex combination.
	var cands [][]int
	if small != nil {
		cands = append(cands, small.open)
	}
	if large != nil {
		// (a) top-k large facilities by served inlier weight;
		cands = append(cands, topKByServedWeight(c, w, large.open, k, t))
		if small != nil && len(small.open) > 0 {
			// (b) pair each small center with its closest large center and
			// top up to k with the heaviest unpaired large centers.
			cands = append(cands, pairAndFill(c, w, small.open, large.open, k, t))
		}
	}
	best := Solution{Cost: math.Inf(1)}
	for _, centers := range cands {
		if len(centers) == 0 || len(centers) > k {
			continue
		}
		if s := Eval(c, w, centers, budget); s.Cost < best.Cost {
			best = s
		}
	}
	if math.IsInf(best.Cost, 1) {
		return Eval(c, w, nil, budget)
	}
	return best
}

// orderByServedWeight returns the facilities of `open` sorted by the inlier
// weight they serve under the (|open|, t)-evaluation, heaviest first.
func orderByServedWeight(c metric.Costs, w []float64, open []int, t float64) []int {
	sol := Eval(c, w, open, t)
	served := make(map[int]float64, len(open))
	for j, f := range sol.Assign {
		if f >= 0 {
			served[f] += weight(w, j) - sol.DroppedWeight[j]
		}
	}
	order := append([]int(nil), open...)
	sort.Slice(order, func(a, b int) bool {
		if served[order[a]] != served[order[b]] {
			return served[order[a]] > served[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// topKByServedWeight keeps the k facilities of `open` serving the most
// inlier weight under the (|open|, t)-evaluation.
func topKByServedWeight(c metric.Costs, w []float64, open []int, k int, t float64) []int {
	if len(open) <= k {
		return open
	}
	order := orderByServedWeight(c, w, open, t)
	out := append([]int(nil), order[:k]...)
	sort.Ints(out)
	return out
}

// pairAndFill pairs every small-solution center with its closest
// large-solution center (closeness via the cheapest two-hop client path,
// since Costs has no facility-facility oracle) and fills up to k centers
// with the heaviest remaining large centers.
func pairAndFill(c metric.Costs, w []float64, small, large []int, k int, t float64) []int {
	nc := c.Clients()
	pairDist := func(f, g int) float64 {
		best := math.Inf(1)
		for j := 0; j < nc; j++ {
			if d := c.Cost(j, f) + c.Cost(j, g); d < best {
				best = d
			}
		}
		return best
	}
	chosen := make(map[int]bool)
	for _, f := range small {
		bestG, bd := -1, math.Inf(1)
		for _, g := range large {
			if d := pairDist(f, g); d < bd {
				bd, bestG = d, g
			}
		}
		if bestG >= 0 {
			chosen[bestG] = true
		}
	}
	for _, g := range orderByServedWeight(c, w, large, t) {
		if len(chosen) >= k {
			break
		}
		chosen[g] = true
	}
	out := make([]int, 0, len(chosen))
	for g := range chosen {
		out = append(out, g)
	}
	sort.Ints(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}
