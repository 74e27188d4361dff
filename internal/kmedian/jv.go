package kmedian

import (
	"math"
	"slices"
	"sort"

	"dpc/internal/metric"
	"dpc/internal/par"
)

// jvOrders is the lambda-independent edge structure of the reference
// engine's dual ascent: every facility's connection-cost column and its
// clients sorted by that cost. jvRun rebuilds it for every probe of JV's
// binary search, as the seed implementation did; the fast engine builds its
// own, jvGraph, once per JV call.
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
	for f := 0; f < nf && !opt.canceled(); f++ {
		idx := make([]int, nc)
		cf := make([]float64, nc)
		for j := 0; j < nc; j++ {
			idx[j] = j
			cf[j] = c.Cost(j, f)
		}
		sort.Slice(idx, func(a, b int) bool { return cf[idx[a]] < cf[idx[b]] })
		ord.byCost[f] = idx
		ord.costs[f] = cf
	}
	return ord
}

// jvGraph is the fast engine's edge structure, built once per JV call by
// newJVGraph and shared by every probe of the binary search.
type jvGraph struct {
	nc     int
	costs  [][]float64 // costs[f][j] = Cost(j, f)
	sorted [][]jvEdge  // facility f's clients by cost, in jvPrecompute's order
	// cells[j*nf+f] is Cost(j, f) and client j's index in sorted[f]: a
	// freeze's scan of every facility, laid out client-major.
	cells []jvCell
	nan   bool // some cost is NaN, so no column is monotone
	// live is jvRunFast's working copy of sorted, reused probe to probe.
	live []jvEdge
}

// jvEdge is one client of a facility's sorted column and its cost.
type jvEdge struct {
	c float64
	j int32
}

// jvCell is one (client, facility) pair of a freeze's scan.
type jvCell struct {
	c   float64
	pos int32
}

// edgeCmp orders a column's edges by cost as jvPrecompute's sort.Slice
// orders its client indices: -1 exactly where that sort's less holds (see
// descBy).
func edgeCmp(a, b jvEdge) int {
	switch {
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return 0
}

// newJVGraph is jvPrecompute for the fast engine: each column comes from
// metric.CostColumn (Cost's floats, bit for bit), and slices.SortFunc under
// edgeCmp over (cost, client) pairs makes the same comparisons as
// jvPrecompute's sort.Slice over client indices — one pdqsort, generated
// from one template, whose moves depend only on the outcomes — so sorted
// holds its permutation, ties included (TestSortFuncMatchesSortSlice). The
// cancel check, and the nil columns it leaves, are jvPrecompute's, for the
// same reason.
func newJVGraph(c metric.Costs, opt Options) *jvGraph {
	nc, nf := c.Clients(), c.Facilities()
	g := &jvGraph{nc: nc, costs: make([][]float64, nf), sorted: make([][]jvEdge, nf), cells: make([]jvCell, nc*nf)}
	nan := make([]bool, nf)
	par.For(opt.Workers, nf, func(f int) {
		if opt.canceled() {
			return
		}
		col := make([]float64, nc)
		metric.CostColumn(c, f, nil, col)
		es := make([]jvEdge, nc)
		for j, x := range col {
			es[j] = jvEdge{c: x, j: int32(j)}
		}
		slices.SortFunc(es, edgeCmp)
		nan[f] = slices.ContainsFunc(col, math.IsNaN)
		for i, e := range es {
			g.cells[int(e.j)*nf+f] = jvCell{c: e.c, pos: int32(i)}
		}
		g.costs[f], g.sorted[f] = col, es
	})
	g.nan = slices.Contains(nan, true)
	return g
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
//
// This is the reference engine's ascent: every event re-walks every unopened
// facility and re-scans every (active client, open facility) pair. The fast
// engine runs jvRunFast, which must return the same result bit for bit.
func jvRun(c metric.Costs, w []float64, lambda, stopW float64, opt Options) jvResult {
	nc, nf := c.Clients(), c.Facilities()
	active := make([]bool, nc)
	alpha := make([]float64, nc)
	activeW := 0.0
	for j := 0; j < nc; j++ {
		active[j] = true
		activeW += weight(w, j)
	}
	ord := jvPrecompute(c, opt)
	byCost, costs := ord.byCost, ord.costs
	frozenContrib := make([]float64, nf) // locked surplus from frozen clients
	isOpen := make([]bool, nf)
	var openOrder []int
	theta := 0.0

	freeze := func(j int, a float64) {
		active[j] = false
		alpha[j] = a
		activeW -= weight(w, j)
		for f := 0; f < nf; f++ {
			if costs[f] == nil {
				continue // column skipped by a cancelled precompute
			}
			if s := a - costs[f][j]; s > 0 {
				frozenContrib[f] += weight(w, j) * s
			}
		}
	}

	// nextFacilityEvent returns the earliest time >= theta at which an
	// unopened facility becomes fully paid, or +Inf; ties break toward the
	// lowest facility index.
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
		tf, f := math.Inf(1), -1
		for g := 0; g < nf; g++ {
			if x := facilityTime(g); x < tf {
				tf, f = x, g
			}
		}
		return tf, f
	}

	// nextClientEvent returns the earliest time >= theta at which an active
	// client reaches a tight edge to an open facility, or +Inf; ties break
	// toward the lowest client index.
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
		tc, j := math.Inf(1), -1
		for i := 0; i < nc; i++ {
			if x := clientTime(i); x < tc {
				tc, j = x, i
			}
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

// jvRunFast is jvRun for the fast engine, over the graph newJVGraph built
// once per JV call. It fires the same events in the same order and does the
// same float operations on the same values, so its result is jvRun's bit
// for bit (TestJVMatchesReference, FuzzJVMatchesReference); it only stops
// redoing work whose inputs did not change:
//
//   - Client events. minOpen[j] is the cost of client j's cheapest open
//     facility, lowest index first among equal costs, updated in O(nc) when
//     a facility opens. jvRun's per-client minimum over open f of
//     max(c_fj, theta) is max(minOpen[j], theta): both are exact selections
//     among the same floats, with the same tie-break.
//   - Facility events. tf[f] caches facility f's walk and stop[f] a
//     position in sorted[f] at or past the breakpoint jvRun's walk stops
//     at, with only frozen clients in between. That walk reads lambda,
//     frozenContrib[f], theta and which clients before its breakpoint are
//     active; f is walked again only when a freeze adds to frozenContrib[f]
//     or freezes a client before stop[f] (cells). A clean f's cache is exact:
//     theta is always the minimum over the cached times (or a client time
//     below them), so it never passes tf[f], and at any theta' in
//     [theta, tf[f]] every breakpoint before the stopping one still fails
//     its test — max(th, theta') only grew — while the stopping one passes
//     with max(th, theta') = tf[f].
//   - The walk itself. Between two active clients W and S do not change, so
//     th does not either, and with the costs ascending (no NaN: JV sends a
//     NaN instance to jvRun) jvRun's tests at the inactive breakpoints in
//     between pass iff the test at the next active client's breakpoint does,
//     returning the same max(th, theta). So the walk visits active clients
//     only, dropping frozen ones from its own copy of the column as it goes,
//     and skips the division where the segment ends below theta, where
//     max(th, theta) >= theta > segEnd fails the test anyway.
//   - Pruning. Each opened facility gets the bitset of clients whose
//     effective dual exceeds its cost + eps; two facilities conflict exactly
//     when their bitsets intersect, the boolean jvRun's conflicts computes.
func jvRunFast(g *jvGraph, w []float64, lambda, stopW float64, opt Options) jvResult {
	nc, nf := g.nc, len(g.costs)
	costs := g.costs
	active := make([]bool, nc)
	alpha := make([]float64, nc)
	minOpen := make([]float64, nc)
	minAt := make([]int, nc)
	activeW := 0.0
	for j := 0; j < nc; j++ {
		active[j] = true
		activeW += weight(w, j)
		minOpen[j], minAt[j] = math.Inf(1), nf
	}
	frozenContrib := make([]float64, nf)
	isOpen := make([]bool, nf)
	tf := make([]float64, nf)
	stop := make([]int32, nf)
	dirty := make([]bool, nf)
	// live[f]: sorted[f] less some frozen clients, compacted by walk.
	live := make([][]jvEdge, nf)
	if g.live == nil {
		g.live = make([]jvEdge, 0, nf*nc)
	}
	flat := g.live[:0]
	for f, es := range g.sorted {
		live[f] = flat[len(flat) : len(flat)+len(es) : len(flat)+len(es)]
		flat = append(flat, es...)
		dirty[f] = true
	}
	g.live = flat
	var openOrder []int
	theta := 0.0

	freeze := func(j int, a float64) {
		active[j] = false
		alpha[j] = a
		wj := weight(w, j)
		activeW -= wj
		for f, x := range g.cells[j*nf : (j+1)*nf] {
			if costs[f] == nil {
				continue // column skipped by a cancelled precompute
			}
			if s := a - x.c; s > 0 {
				frozenContrib[f] += wj * s
				dirty[f] = true
			} else if x.pos < stop[f] {
				dirty[f] = true
			}
		}
	}

	// walk is jvRun's facilityTime for an unopened f, over its active
	// clients, returning also the position it stopped at (nc+1: ran off the
	// end without a finite time).
	walk := func(f int) (float64, int32) {
		W, S := 0.0, 0.0
		fc := frozenContrib[f]
		es := live[f]
		n := 0
		for i, e := range es {
			if !active[e.j] {
				continue
			}
			es[n] = e
			n++
			if W > 0 {
				if !(e.c < theta) {
					th := (lambda - fc + S) / W
					if th < theta {
						th = theta
					}
					if th <= e.c {
						live[f] = append(es[:n], es[i+1:]...)
						return th, g.cells[int(e.j)*nf+f].pos
					}
				}
			} else if fc >= lambda {
				live[f] = append(es[:n], es[i+1:]...)
				return theta, g.cells[int(e.j)*nf+f].pos
			}
			W += weight(w, int(e.j))
			S += weight(w, int(e.j)) * e.c
		}
		live[f] = es[:n]
		// The breakpoint past the last client: segEnd = +Inf, which th
		// meets unless it is NaN.
		if W > 0 {
			th := (lambda - fc + S) / W
			if th < theta {
				th = theta
			}
			if th <= math.Inf(1) {
				return th, int32(nc)
			}
		} else if fc >= lambda {
			return theta, int32(nc)
		}
		return math.Inf(1), int32(nc) + 1
	}
	facilityTime := func(f int) float64 {
		if isOpen[f] {
			return math.Inf(1)
		}
		if dirty[f] {
			tf[f], stop[f] = walk(f)
			dirty[f] = false
		}
		return tf[f]
	}
	clientTime := func(j int) float64 {
		if !active[j] {
			return math.Inf(1)
		}
		if t := minOpen[j]; !(t < theta) {
			return t
		}
		return theta
	}

	const eps = 1e-12 // jvRun's
	for activeW > stopW+eps {
		if opt.canceled() {
			break // preempted mid-ascent: prune what opened so far and exit
		}
		f, tfMin := par.MinIndex(opt.Workers, nf, facilityTime)
		j, tc := par.MinIndex(opt.Workers, nc, clientTime)
		if math.IsInf(tfMin, 1) && math.IsInf(tc, 1) {
			break // no facilities at all
		}
		if tfMin <= tc {
			theta = tfMin
			isOpen[f] = true
			openOrder = append(openOrder, f)
			col := costs[f]
			for jj := 0; jj < nc; jj++ {
				if active[jj] && col[jj] <= theta+eps {
					freeze(jj, theta)
					if activeW <= stopW+eps {
						break
					}
				}
			}
			for jj, x := range col {
				if x < minOpen[jj] || (x == minOpen[jj] && f < minAt[jj]) {
					minOpen[jj], minAt[jj] = x, f
				}
			}
		} else {
			theta = tc
			freeze(j, theta)
		}
	}

	// Pruning: greedy maximal independent set in opening order over the
	// positive-contribution bitsets.
	words := (nc + 63) / 64
	eff := make([]float64, nc)
	for j := range eff {
		eff[j] = alpha[j]
		if active[j] {
			eff[j] = theta
		}
	}
	sets := make([]uint64, len(openOrder)*words)
	set := func(i int) []uint64 { return sets[i*words : (i+1)*words] }
	for i, f := range openOrder {
		s := set(i)
		for j, x := range costs[f] {
			if eff[j] > x+eps {
				s[j>>6] |= 1 << (j & 63)
			}
		}
	}
	var open, kept []int
	for i, f := range openOrder {
		ok := true
		for _, k := range kept {
			if intersects(set(i), set(k)) {
				ok = false
				break
			}
		}
		if ok {
			open = append(open, f)
			kept = append(kept, i)
		}
	}
	out := make([]bool, nc)
	copy(out, active)
	return jvResult{open: open, outlier: out, numOpen: len(open), outlierW: activeW, stopTheta: theta}
}

// intersects reports whether two equal-length bitsets share a bit.
func intersects(a, b []uint64) bool {
	for i, x := range a {
		if x&b[i] != 0 {
			return true
		}
	}
	return false
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
	// The maximum is an exact selection, so the fast engine may take it from
	// its precomputed columns in any order.
	var maxCost float64
	var run func(lambda float64) jvResult
	if opt.Reference {
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
		run = func(lambda float64) jvResult { return jvRun(c, w, lambda, t, opt) }
	} else {
		g := newJVGraph(c, opt)
		for _, col := range g.costs {
			for _, x := range col {
				if x > maxCost {
					maxCost = x
				}
			}
		}
		run = func(lambda float64) jvResult { return jvRunFast(g, w, lambda, t, opt) }
		if g.nan {
			run = func(lambda float64) jvResult { return jvRun(c, w, lambda, t, opt) }
		}
	}
	lo, hi := 0.0, (TotalWeight(c, w)+1)*(maxCost+1)

	var small, large *jvResult // small: <= k facilities; large: > k

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
