package kmedian

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"

	"dpc/internal/engine"
	"dpc/internal/metric"
	"dpc/internal/par"
)

// Options tunes the local-search engine.
type Options struct {
	// Seed drives all randomness (D^2 seeding, facility sampling).
	Seed int64
	// Ctx, when non-nil, preempts the solver: local-search descent stops at
	// the next swap round and JV's Lagrangian search at the next probe once
	// the context is cancelled, returning the best solution found so far.
	// Callers that propagate the cancellation (the protocol round loops do)
	// discard that partial answer with ctx.Err(); the point of the early
	// return is that a cancelled job stops burning CPU mid-solve instead of
	// finishing a doomed computation. A nil or never-cancelled Ctx changes
	// nothing — the checks never influence a live solve's decisions. The
	// field never crosses the wire: job frames carry configurations, and a
	// context is process-local by nature.
	Ctx context.Context `json:"-"`
	// MaxIters caps the number of swap rounds (default 40).
	MaxIters int
	// SampleFacilities bounds the number of candidate facilities examined
	// per round (default 128; 0 means "use the default"; negative means
	// "examine all facilities").
	SampleFacilities int
	// Restarts runs the search from multiple seeds and keeps the best
	// (default 1).
	Restarts int
	// Warm, when non-empty, seeds the first restart with these facility
	// indices instead of D^2 sampling — used by Algorithm 1's grid of
	// budget solves, where the solution for the previous budget is an
	// excellent starting point for the next.
	Warm []int
	// Options are the consolidated engine knobs (see engine.Options):
	// Workers bounds the goroutines of the parallel engine paths (0 = one
	// per CPU, bit-identical at every width) and Reference switches every
	// solver to the pre-engine sequential implementation — the regression
	// baseline of the parity tests (TestEngineMatchesReference here,
	// internal/bench's TestAllExperimentsQuick end to end). The descent
	// reads its centers' cost columns (Scratch) and asks the oracle nothing
	// per pair.
	engine.Options
	// Scratch, when non-nil, is the descent's working memory, reused from
	// the previous solve it was handed to instead of allocated again — set
	// per call, like Warm, by a caller that runs solves in sequence over one
	// instance shape (protocol.BudgetSolver.Curve's budget grid). One owner,
	// no concurrent solves; nothing a returned Solution references lives in
	// it, and results never depend on it. Process-local like Ctx: never on
	// the wire.
	Scratch *Scratch `json:"-"`
}

// canceled reports whether the solve's context has been cancelled — the
// preemption probe of every solver loop. Nil contexts never cancel.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 40
	}
	if o.SampleFacilities == 0 {
		o.SampleFacilities = 128
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	return o
}

// LocalSearch solves the weighted (k,t)-median problem on c with a
// swap-based local search: D^2-weighted greedy seeding (k-means++ style)
// followed by single-swap descent. Outliers are handled by evaluating every
// accepted configuration with the true partial cost (largest t units of
// connection weight free), and swap gains are estimated on the current
// inlier set — the standard partial-clustering local-search scheme.
//
// The engine is objective-agnostic: pass metric.Squared costs for
// (k,t)-means. Each round is O(nf * nc) plus one O(nc log nc) exact
// re-evaluation.
func LocalSearch(c metric.Costs, w []float64, k int, t float64, opt Options) Solution {
	opt = opt.withDefaults()
	nc, nf := c.Clients(), c.Facilities()
	if nc == 0 || nf == 0 || k <= 0 {
		return Eval(c, w, nil, t)
	}
	if TotalWeight(c, w) <= t {
		return Eval(c, w, nil, t)
	}
	if opt.canceled() {
		// Preempted before the first seeding: don't start O(k * nc * nf)
		// work for an answer the caller will discard with ctx.Err().
		return Eval(c, w, nil, t)
	}
	if k > nf {
		k = nf
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	best := Solution{Cost: math.Inf(1)}
	for restart := 0; restart < opt.Restarts; restart++ {
		if restart > 0 && opt.canceled() {
			break // keep the best finished restart; the caller sees ctx.Err()
		}
		var centers []int
		if restart == 0 && len(opt.Warm) > 0 {
			centers = warmCenters(opt.Warm, k, nf)
		} else {
			centers = seedDSquared(c, w, k, rng)
		}
		sol := descend(c, w, centers, t, opt, rng)
		if sol.Cost < best.Cost {
			best = sol
		}
	}
	return best
}

// warmCenters sanitizes a warm-start center list: in-range, deduplicated,
// truncated or padded to k facilities.
func warmCenters(warm []int, k, nf int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for _, f := range warm {
		if f >= 0 && f < nf && !seen[f] && len(out) < k {
			seen[f] = true
			out = append(out, f)
		}
	}
	for f := 0; f < nf && len(out) < k; f++ {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// seedDSquared picks k facilities by D^2 sampling: the first uniformly at
// random, each next with probability proportional to the weighted distance
// of clients to the current set (sampling a client, then using its cheapest
// facility as the new center).
func seedDSquared(c metric.Costs, w []float64, k int, rng *rand.Rand) []int {
	nc, nf := c.Clients(), c.Facilities()
	centers := make([]int, 0, k)
	centers = append(centers, rng.Intn(nf))
	d := make([]float64, nc)
	for j := range d {
		d[j] = c.Cost(j, centers[0])
	}
	inSet := map[int]bool{centers[0]: true}
	for len(centers) < k {
		var total float64
		for j := 0; j < nc; j++ {
			total += weight(w, j) * d[j]
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(nc)
		} else {
			x := rng.Float64() * total
			for j := 0; j < nc; j++ {
				x -= weight(w, j) * d[j]
				if x <= 0 {
					pick = j
					break
				}
			}
		}
		// Use the picked client's cheapest *unused* facility as the center.
		bestF, bd := -1, math.Inf(1)
		for f := 0; f < nf; f++ {
			if inSet[f] {
				continue
			}
			if x := c.Cost(pick, f); x < bd {
				bd, bestF = x, f
			}
		}
		if bestF < 0 { // all facilities used
			break
		}
		centers = append(centers, bestF)
		inSet[bestF] = true
		for j := 0; j < nc; j++ {
			if x := c.Cost(j, bestF); x < d[j] {
				d[j] = x
			}
		}
	}
	return centers
}

// relTol is the relative improvement below which descent stops.
const relTol = 1e-6

// topE is the number of candidate facilities exactly evaluated per round.
const topE = 12

// scored is a candidate facility with its add potential.
type scored struct {
	f   int
	pot float64
}

// byPotDesc orders candidates by potential, largest first: the
// slices.SortFunc form of descendReference's sort.Slice less
// top[a].pot > top[b].pot, with its permutation (see descBy).
func byPotDesc(a, b scored) int {
	switch {
	case a.pot > b.pot:
		return -1
	case a.pot < b.pot:
		return 1
	}
	return 0
}

// Scratch is the working memory of a descent over nc clients and k centers:
// the centers' and candidates' cost columns, the nearest/second-nearest
// state, the swap evaluator's streams and the round buffers. A zero Scratch
// is ready; fit (re)allocates when nc or k changes, and between two descents
// of one shape nothing is carried: every buffer is overwritten before it is
// read (rows and cols by metric.CostColumn, the per-client state by eval,
// val/tag by swapEval.candidate), so reuse cannot reach a result. The
// Solution a descent returns is built by copy (solution).
type Scratch struct {
	nc, k int
	// rows[p][j] = Cost(j, centers[p]); cols[si] the round's si-th candidate
	// column. An accepted swap trades the two buffers.
	rows, cols [][]float64
	centers    []int
	// Per client under the current centers, all written by eval: cost to the
	// nearest center and its position (-1: no finite cost), cost to the
	// second-nearest, dropped and inlier weight; order is the clients by d1
	// descending, in Eval's tie order.
	d1, d2, dropped, inW []float64
	a1, order            []int
	ev                   swapEval
	// Round buffers.
	pos   map[int]int  // facility -> position in centers
	seen  map[int]bool // facilityCandidates' sample
	cands []int
	pots  []float64
	top   []scored
	costs []float64
}

// fit sizes the scratch for nc clients and k centers.
func (sc *Scratch) fit(nc, k int) {
	if sc.nc == nc && sc.k == k {
		return
	}
	columns := func(n int) [][]float64 {
		out, flat := make([][]float64, n), make([]float64, n*nc)
		for i := range out {
			out[i] = flat[i*nc : (i+1)*nc : (i+1)*nc]
		}
		return out
	}
	*sc = Scratch{
		nc: nc, k: k,
		rows: columns(k), cols: columns(topE),
		centers: make([]int, k),
		d1:      make([]float64, nc), d2: make([]float64, nc),
		dropped: make([]float64, nc), inW: make([]float64, nc),
		a1: make([]int, nc), order: make([]int, nc),
		ev:    newSwapEval(nc, k),
		pos:   make(map[int]int, k),
		seen:  make(map[int]bool),
		costs: make([]float64, topE*k),
	}
}

// descend runs single-swap descent from the given centers. Each round ranks
// candidate facilities by their "add potential" on the current inlier set
// (the saving from adding the facility without removing anything), then
// exactly re-evaluates the swaps of the top facilities against every
// current center — crucially with the outlier set re-selected, so the
// budget can migrate to newly-far points (e.g. off a point that used to be
// a center).
//
// This is the fast engine. The centers' cost columns are held across rounds
// (Scratch.rows; an accepted swap brings in the winning candidate's column,
// already computed that round), so the d1/d2 nearest/second-nearest scan and
// the re-evaluation of every accepted configuration (Scratch.eval) read
// columns and call the oracle zero times. Candidate columns are computed
// once per round, the d1/d2 bookkeeping turns each of the k swaps per
// candidate into a merge instead of a fresh k-way scan, and at unit weight
// swapEval prices most slots by a lower bound and walks only the few that
// can hold the round's minimum; the independent work runs on opt.Workers
// goroutines. Invariant: a slot's cost cell is either the exact EvalSum
// float of the swapped center set or +Inf, and +Inf only when that exact
// float is >= cur's cost or strictly above the round's minimum — a value the
// strict first-win fold below never takes and that never moves its result.
// So every decision (swap chosen, stop condition, RNG stream) is
// bit-identical to descendReference — TestEngineMatchesReference and
// internal/bench's TestAllExperimentsQuick enforce it.
func descend(c metric.Costs, w []float64, centers []int, t float64, opt Options, rng *rand.Rand) Solution {
	if opt.Reference {
		return descendReference(c, w, centers, t, opt, rng)
	}
	nc, nf := c.Clients(), c.Facilities()
	workers := opt.Workers
	k := len(centers)
	sc := opt.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.fit(nc, k)
	cur, rows, cols, costs := sc.centers, sc.rows, sc.cols, sc.costs
	copy(cur, centers)
	par.For(workers, k, func(p int) { metric.CostColumn(c, cur[p], nil, rows[p]) })
	curCost := sc.eval(w, t, workers)
	// Weighted clients take the sort walk, one pair buffer per (candidate,
	// position) slot; unit weights take sc.ev.
	var pairs [][]cd
	if w != nil {
		pairs = make([][]cd, topE*k)
		for i, flat := 0, make([]cd, topE*k*nc); i < topE*k; i++ {
			pairs[i] = flat[i*nc : (i+1)*nc : (i+1)*nc]
		}
	}
	ps := newPotScan(c, sc.d1, sc.a1, sc.inW)
	for iter := 0; iter < opt.MaxIters; iter++ {
		if opt.canceled() {
			break // preempted mid-descent: stop burning rounds
		}
		clear(sc.pos)
		for p, f := range cur {
			sc.pos[f] = p
		}
		ps.begin(cur, sc.order)
		cands := facilityCandidates(nf, sc.pos, opt, rng, sc.seen, sc.cands)
		pots := slices.Grow(sc.pots[:0], len(cands))[:len(cands)]
		sc.cands, sc.pots = cands, pots
		ps.potentials(workers, cands, pots)
		top := sc.top[:0]
		for ci, f := range cands {
			if pots[ci] > 0 {
				top = append(top, scored{f: f, pot: pots[ci]})
			}
		}
		sc.top = top
		slices.SortFunc(top, byPotDesc)
		if len(top) > topE {
			top = top[:topE]
		}
		// Distance columns of the surviving candidates, once per round.
		par.For(workers, len(top), func(si int) {
			metric.CostColumn(c, top[si].f, nil, cols[si])
		})
		// Every (candidate, removed position) swap into per-slot cost cells;
		// the fold below replays the sequential first-strict-win scan, so
		// ties resolve exactly as in the reference engine.
		if w == nil {
			sc.ev.round(sc.d1, sc.a1, sc.d2, sc.order)
			sc.ev.swaps(workers, cols[:len(top)], t, curCost, costs)
		} else {
			par.For(workers, len(top)*k, func(slot int) {
				costs[slot] = swapCostWeighted(cols[slot/k], sc.d1, sc.a1, sc.d2, w, slot%k, t, pairs[slot])
			})
		}
		bestCost := curCost
		bestSwap := [2]int{-1, -1} // (center position, candidate)
		for si := range top {
			for p := 0; p < k; p++ {
				if cost := costs[si*k+p]; cost < bestCost {
					bestCost = cost
					bestSwap = [2]int{p, si}
				}
			}
		}
		if bestSwap[0] < 0 || bestCost >= curCost*(1-relTol) {
			break
		}
		p, si := bestSwap[0], bestSwap[1]
		cur[p] = top[si].f
		rows[p], cols[si] = cols[si], rows[p]
		curCost = sc.eval(w, t, workers)
	}
	return sc.solution(curCost, t)
}

// swapCostWeighted is the exact partial cost, on weighted clients, of
// swapping the center at position p for the facility with distance column
// col: client j pays min(col[j], d2[j]) when its nearest center is the one
// removed, min(col[j], d1[j]) otherwise. ds (len nc, overwritten) takes the
// pairs in client order: with unequal weights the order among tied costs
// decides whose weight the fractional budget eats, so this path keeps
// EvalSum's own sort and is bit-identical to it on the swapped center set.
func swapCostWeighted(col, d1 []float64, a1 []int, d2, w []float64, p int, t float64, ds []cd) float64 {
	for j := range col {
		dj := d1[j]
		if a1[j] == p {
			dj = d2[j]
		}
		if col[j] < dj {
			dj = col[j]
		}
		ds[j] = cd{d: dj, w: w[j]}
	}
	return partialCostPairs(ds, t)
}

// swapEval is the unit-weight swap evaluator. With every weight 1, EvalSum's
// descending budget walk depends only on the descending sequence of values
// (equal values are interchangeable), so it can be fed by merging sorted
// pieces instead of sorting nc values per slot. For candidate column col and
// removed position p, client j pays col[j] if the candidate captures it
// (col[j] < d1[j], whatever p is), min(col[j], d2[j]) if its nearest center
// is the one removed, and d1[j] otherwise. So round takes the d1 order and
// buckets clients by a1 for all topE*k slots; candidate sorts its captured
// values (about nc/k) and merges them into the d1 order; and a slot (si, p)
// is that stream with group p's entries replaced by their re-homed values.
// swaps prices every slot by lower — O(nc/k), no sort — and runs exact, the
// sort of the re-homed values and the merge walk, only on the slots that
// can still hold the round's minimum. candidate, lower and exact write only
// their own candidate's and slot's state.
type swapEval struct {
	d1, d2 []float64 // this round's nearest/second-nearest costs
	a1     []int     // and nearest-center positions
	ord    []int     // clients by d1 descending
	grp    []int     // clients grouped by a1: grp[start[p]:start[p+1]]
	start  []int
	// Per candidate si, at [si*nc:(si+1)*nc]:
	val   []float64 // min(col, d1) of every client, descending
	tag   []int32   // a1 of val's client, -1 once captured
	moved []float64 // cut like grp: slot (si, p)'s re-homed values
	base  []float64 // per candidate: the sum of val
	lbs   []float64 // per slot: lower's bound
	walk  []int     // the slots swaps walks, by bound
}

func newSwapEval(nc, k int) swapEval {
	return swapEval{
		grp:   make([]int, nc),
		start: make([]int, k+1),
		val:   make([]float64, topE*nc),
		tag:   make([]int32, topE*nc),
		moved: make([]float64, topE*nc),
		base:  make([]float64, topE),
		lbs:   make([]float64, topE*k),
		walk:  make([]int, 0, topE*k),
	}
}

// round installs the round's d1/a1/d2 and the clients by d1 descending — the
// order the evaluation of the current centers just sorted; at unit weight
// equal values are interchangeable, so any descending order gives the same
// streams. All four are read until the next round, not copied. A client
// with no finite center cost (a1[j] < 0) is in no group.
func (e *swapEval) round(d1 []float64, a1 []int, d2 []float64, ord []int) {
	e.d1, e.a1, e.d2, e.ord = d1, a1, d2, ord
	// Counting sort by a1: counts, group ends, then a back-to-front fill that
	// leaves start[p] at group p's head.
	clear(e.start)
	for _, p := range a1 {
		if p >= 0 {
			e.start[p]++
		}
	}
	for p := 1; p < len(e.start); p++ {
		e.start[p] += e.start[p-1]
	}
	for j := len(a1) - 1; j >= 0; j-- {
		if p := a1[j]; p >= 0 {
			e.start[p]--
			e.grp[e.start[p]] = j
		}
	}
}

// candidate builds candidate si's stream, and its sum, from its distance
// column. Every candidate call of a round must return before the round's
// first exact call: the captured values are sorted in the candidate's moved
// buffer.
func (e *swapEval) candidate(si int, col []float64) {
	d1, nc := e.d1, len(e.ord)
	u := e.moved[si*nc : si*nc]
	for j, x := range col {
		if x < d1[j] {
			u = append(u, x)
		}
	}
	slices.Sort(u)
	val, tag := e.val[si*nc:(si+1)*nc], e.tag[si*nc:(si+1)*nc]
	n, ui := 0, len(u)-1
	for _, j := range e.ord {
		if col[j] < d1[j] {
			continue
		}
		for ; ui >= 0 && u[ui] > d1[j]; ui-- {
			val[n], tag[n] = u[ui], -1
			n++
		}
		val[n], tag[n] = d1[j], int32(e.a1[j])
		n++
	}
	for ; ui >= 0; ui-- {
		val[n], tag[n] = u[ui], -1
		n++
	}
	var base float64
	for _, x := range val {
		base += x
	}
	e.base[si] = base
}

// lower returns a float that is <= exact(si, col, p, t, +Inf), or -Inf where
// it has no bound to offer.
//
// Slot (si, p)'s values are candidate si's stream with group p's
// non-captured entries d1[j] replaced by m_j = min(col[j], d2[j]) >= d1[j].
// Write A for the stream entries with tag != p, B for the m_j, T = ceil(t),
// top and tau for the sum and the smallest of A's T largest (tau = 0 when A
// has fewer than T entries, +Inf when T = 0). Every m that enters the T
// largest of A ∪ B displaces one of A's T largest, which is >= tau, so
//
//	top_T(A ∪ B) <= top + Σ_B max(0, m - tau) = U,
//
// and the walk, which drops the t largest units — at most the T largest
// values — of a multiset summing to S = base - D + M (D, M the sums of the
// replaced d1[j] and of the m_j), returns at least S - U in exact
// arithmetic. In floats every term is >= 0 and every sum has at most nc
// terms, so base, D, M, U and the walk's own sum are each within nc*2^-53
// of their real values, relatively; eps = nc*2^-50 leaves a factor 8:
// S - U is deflated by (base+D+M+U)*eps absolutely for the four sums and by
// (1-eps) relatively for the walk's. +Inf costs (unreachable pairs) make
// S - U NaN or infinite: no bound.
func (e *swapEval) lower(si int, col []float64, p int, t float64) float64 {
	nc := len(e.ord)
	if t >= float64(nc) {
		return math.Inf(-1)
	}
	val, tag := e.val[si*nc:(si+1)*nc], e.tag[si*nc:(si+1)*nc]
	top, tau, gone := 0.0, math.Inf(1), int32(p)
	for i, need := 0, int(math.Ceil(t)); need > 0; i++ {
		if i == nc {
			tau = 0
			break
		}
		if tag[i] != gone {
			tau = val[i]
			top += tau
			need--
		}
	}
	var D, M, over float64
	for _, j := range e.grp[e.start[p]:e.start[p+1]] {
		if col[j] < e.d1[j] {
			continue // captured: already in the candidate's stream
		}
		m := min(col[j], e.d2[j])
		D += e.d1[j]
		M += m
		if m > tau {
			over += m - tau
		}
	}
	base, U := e.base[si], top+over
	eps := float64(nc) * 0x1p-50
	lb := (base - D + M - U - (base+D+M+U)*eps) * (1 - eps)
	if math.IsNaN(lb) || math.IsInf(lb, 0) {
		return math.Inf(-1)
	}
	return lb
}

// exact is the partial cost, budget t, of swapping the center at position p
// for candidate si (column col): bit for bit the float EvalSum returns on
// the swapped center set, or +Inf once the running sum is above bound. Every
// term is >= 0 and round-to-nearest addition is monotone, so the exact cost
// is then above bound too. The comparison is strict: a slot that ties bound
// keeps its exact float.
func (e *swapEval) exact(si int, col []float64, p int, t, bound float64) float64 {
	nc, lo, hi := len(e.ord), e.start[p], e.start[p+1]
	v := e.moved[si*nc+lo : si*nc+lo : si*nc+hi]
	for _, j := range e.grp[lo:hi] {
		if col[j] < e.d1[j] {
			continue // captured: already in the candidate's stream
		}
		v = append(v, min(col[j], e.d2[j]))
	}
	slices.Sort(v)
	val, tag := e.val[si*nc:(si+1)*nc], e.tag[si*nc:(si+1)*nc]
	i, vi, gone := 0, len(v)-1, int32(p)
	budget, cost := t, 0.0
	for n := len(val); n > 0; n-- {
		for i < len(val) && tag[i] == gone {
			i++
		}
		var d float64
		if vi >= 0 && (i == len(val) || v[vi] > val[i]) {
			d = v[vi]
			vi--
		} else {
			d = val[i]
			i++
		}
		// The budget walk of partialCostPairs at unit weight.
		if budget >= 1 {
			budget--
			continue
		}
		keep := 1.0
		if budget > 0 {
			keep -= budget
			budget = 0
		}
		cost += keep * d
		if cost > bound {
			return math.Inf(1)
		}
	}
	return cost
}

// swaps fills costs[si*k+p] for the round's candidates cols against every
// removed position p, cur being the current solution's cost, and returns
// how many slots it walked. Phase 1, per candidate then per slot on workers
// goroutines: the streams, every slot's lower bound, every cell +Inf. Phase
// 2, sequential: the slots whose bound is below cur, in ascending bound
// order, are walked exactly against the running best run (cur, then the
// smallest exact cost so far) until the first bound above run.
//
// Write min for the smallest exact cost of the round if that is below cur.
// run >= min throughout, so a slot whose exact cost E equals min has
// bound <= E <= run when it is reached — it is reached, and its walk, which
// stops only above run, returns E. Every other cell is its exact float or
// +Inf, and +Inf only with E >= cur, E > run >= min (walk stopped) or
// E >= bound > run >= min (never walked). Both discards are strict: a slot
// that ties the running best but precedes it in (si, p) order is the one
// the caller's first-strict-win fold must take.
func (e *swapEval) swaps(workers int, cols [][]float64, t, cur float64, costs []float64) int {
	k := len(e.start) - 1
	slots := len(cols) * k
	par.For(workers, len(cols), func(si int) { e.candidate(si, cols[si]) })
	par.For(workers, slots, func(slot int) {
		e.lbs[slot] = e.lower(slot/k, cols[slot/k], slot%k, t)
		costs[slot] = math.Inf(1)
	})
	e.walk = e.walk[:0]
	for slot, lb := range e.lbs[:slots] {
		if lb < cur {
			e.walk = append(e.walk, slot)
		}
	}
	slices.SortFunc(e.walk, func(a, b int) int {
		return cmp.Or(cmp.Compare(e.lbs[a], e.lbs[b]), cmp.Compare(a, b))
	})
	run, walked := cur, 0
	for _, slot := range e.walk {
		if e.lbs[slot] > run {
			break
		}
		cost := e.exact(slot/k, cols[slot/k], slot%k, t, run)
		costs[slot] = cost
		if cost < run {
			run = cost
		}
		walked++
	}
	return walked
}

// descendReference is the seed implementation of descend, kept verbatim as
// the regression baseline: Options.Reference routes here, and the harness
// asserts the fast engine matches it bit-for-bit.
func descendReference(c metric.Costs, w []float64, centers []int, t float64, opt Options, rng *rand.Rand) Solution {
	nc, nf := c.Clients(), c.Facilities()
	cur := Eval(c, w, centers, t)
	for iter := 0; iter < opt.MaxIters; iter++ {
		if opt.canceled() {
			break // same preemption point as the fast engine's descent
		}
		k := len(cur.Centers)
		pos := make(map[int]int, k) // facility -> position in centers
		for p, f := range cur.Centers {
			pos[f] = p
		}
		d1 := make([]float64, nc)
		inW := make([]float64, nc)
		for j := 0; j < nc; j++ {
			d1[j] = math.Inf(1)
			for _, f := range cur.Centers {
				if x := c.Cost(j, f); x < d1[j] {
					d1[j] = x
				}
			}
			inW[j] = weight(w, j) - cur.DroppedWeight[j]
		}
		cands := facilityCandidates(nf, pos, opt, rng, nil, nil)
		type scored struct {
			f   int
			pot float64
		}
		top := make([]scored, 0, len(cands))
		for _, f := range cands {
			var pot float64
			for j := 0; j < nc; j++ {
				if inW[j] <= 0 {
					continue
				}
				if s := d1[j] - c.Cost(j, f); s > 0 {
					pot += inW[j] * s
				}
			}
			if pot > 0 {
				top = append(top, scored{f: f, pot: pot})
			}
		}
		sort.Slice(top, func(a, b int) bool { return top[a].pot > top[b].pot })
		if len(top) > topE {
			top = top[:topE]
		}
		bestCost := cur.Cost
		bestSwap := [2]int{-1, -1} // (center position, facility)
		trial := append([]int(nil), cur.Centers...)
		for _, s := range top {
			for p := 0; p < k; p++ {
				old := trial[p]
				trial[p] = s.f
				if cost := EvalSum(c, w, trial, t); cost < bestCost {
					bestCost = cost
					bestSwap = [2]int{p, s.f}
				}
				trial[p] = old
			}
		}
		if bestSwap[0] < 0 || bestCost >= cur.Cost*(1-relTol) {
			break
		}
		trial[bestSwap[0]] = bestSwap[1]
		cur = Eval(c, w, trial, t)
	}
	return cur
}

// facilityCandidates returns the facilities to try swapping in, excluding
// current centers; sampled without replacement when the facility set is
// large. seen (cleared here) and out (overwritten) are the caller's round
// scratch; nil allocates.
func facilityCandidates(nf int, pos map[int]int, opt Options, rng *rand.Rand, seen map[int]bool, out []int) []int {
	out = out[:0]
	limit := opt.SampleFacilities
	if limit < 0 || nf <= limit {
		for f := 0; f < nf; f++ {
			if _, used := pos[f]; !used {
				out = append(out, f)
			}
		}
		return out
	}
	if seen == nil {
		seen = make(map[int]bool, limit)
	} else {
		clear(seen)
	}
	for len(out) < limit && len(seen) < nf {
		f := rng.Intn(nf)
		if seen[f] {
			continue
		}
		seen[f] = true
		if _, used := pos[f]; !used {
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return out
}
