// Package kcenter implements the k-center machinery the paper builds on:
// Gonzalez's farthest-first traversal [13] (the preclustering of
// Algorithm 2, which simultaneously yields local solutions and the slope
// witnesses l(i,q)), and a Charikar-et-al.-style greedy 3-approximation for
// the (k,t)-center problem with outliers [4] (the coordinator's final step),
// in a weighted variant so it can run on aggregated precluster centers.
//
// Every solver has two engines selected by Opt: the fast engine (default)
// asks the oracle for each distance once and spreads independent scans over
// Opt.Workers goroutines, and the reference engine (Opt.Reference) is the
// seed implementation kept as the regression baseline. The two are
// bit-identical — parallel reductions use fixed first-index tie-breaking,
// float sums keep the reference's order of addition — and the parity tests
// (engine_parity_test.go and partial_parity_test.go here, internal/bench's
// TestAllExperimentsQuick end to end) assert it.
package kcenter

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"dpc/internal/engine"
	"dpc/internal/metric"
	"dpc/internal/par"
)

// Opt selects the engine of a solver call. It is the consolidated engine
// knob set (see engine.Options): Workers bounds the fast engine's
// goroutines and Reference runs the seed sequential implementation. The
// oracle itself (memoized or raw) is chosen by the callers that construct
// the space.
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
// (bit-identical for every worker count). It stays apart from kmedian.Eval
// on purpose: its 1e-12 slack is the Charikar greedy's feasibility rule.
func EvalMaxOpt(c metric.Costs, w []float64, centers []int, t float64, o Opt) float64 {
	n := c.Clients()
	ds := make([]cd, n)
	par.For(workers(o), n, func(j int) {
		dmin := math.Inf(1)
		for _, f := range centers {
			if d := c.Cost(j, f); d < dmin {
				dmin = d
			}
		}
		ds[j] = cd{d: dmin, w: weightAt(w, j)}
	})
	return keptMax(ds, t)
}

// cd is a client's (connection cost, weight) pair in EvalMax's budget walk.
type cd struct{ d, w float64 }

// farthestFirst is the slices.SortFunc comparator of EvalMax's pair sort,
// whose reference is sort.Slice with less ds[a].d > ds[b].d. The two sorts
// are one pdqsort template that consults the comparison only as less(a, b),
// i.e. cmp(a, b) < 0, and farthestFirst returns -1 exactly where that less
// holds, so both make the same permutation, ties, ±0 and NaN included
// (TestPairSortMatchesSortSlice).
func farthestFirst(a, b cd) int {
	switch {
	case a.d > b.d:
		return -1
	case a.d < b.d:
		return 1
	}
	return 0
}

// keptMax sorts ds farthest first and spends the budget t down it: the
// first pair whose weight the remaining budget cannot discard (up to the
// greedy's 1e-12 slack) is the objective; 0 when t discards them all.
func keptMax(ds []cd, t float64) float64 {
	slices.SortFunc(ds, farthestFirst)
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
// Runtime: nc*nf oracle calls and one linear-time radix sort of the cells to
// set up, then O(log(nc*nf)) probes, each costing nc*log(nf) plus, per
// greedy round, the sizes of the uncovered clients' r-balls.
func Partial(c metric.Costs, w []float64, k int, t float64) Solution {
	return PartialOpt(c, w, k, t, Opt{})
}

// maxPartialMatrix bounds the dense cost matrix the fast engine
// materializes, in cells. The peak is 32 bytes a cell — the matrix (8), the
// radix sort's two buffers of packed cells (16; the spent one then holds
// the candidate radii and the other the probes' prefix-count table, 4 bytes
// a cell; a *metric.Points instance packs only its upper triangle, about
// half of this) and the per-client facility orders, each entry tagged with
// its cost's rank among the candidate radii (8) — 512 MiB at this cap; it
// also keeps a cell index, and so a rank, inside the 32 bits a packed cell
// and a tagged entry have for it. Those bytes are a Scratch's: a solve without
// one allocates them afresh, while a fleet's coordinator (jobwire.Fleet,
// through core.Config.CenterScratch) keeps one set across all its jobs, up
// to maxScratchBytes, and with it the ball index of its last *metric.Points
// instance. Larger instances fall back to the oracle-scanning reference
// engine, which neither uses nor keys a Scratch.
const maxPartialMatrix = 16 << 20

// PartialOpt is Partial with an engine selection. The fast engine asks the
// oracle for every cost once (see ballIndex), after which a probe at the
// m-th candidate radius never scans: each client's r-ball is the prefix of
// its cost-sorted facility list whose ranks are at most m, found by a
// binary search on the rank tags inside the bracket the earlier probes left
// (probe). A greedy round's gains are pushed from the uncovered
// clients, in ascending client order, into the facilities of those
// prefixes, so every facility's gain is the sum of exactly the weights the
// reference scan adds, in the reference's order. Counted weights (counted:
// non-negative integers, unit weights included, with a total a uint32
// holds) on a *metric.Points instance take an integer path instead: every
// sum is then exact in any order, so round 1's gains are lookups in a
// per-row prefix-count table, and a later round subtracts only the balls of
// the clients the last one covered. Either way gains, picks (ties toward
// the lowest facility index) and the probe sequence are bit-identical to
// partialReference. o.Workers spreads only the matrix fill: the sort and
// the scatter-adds are sequential by design (per-worker gain arrays would
// reorder the sums).
//
// PartialOpt allocates its working memory, up to 32 bytes a client-facility
// pair, and builds the ball index on every call; Scratch.Partial is the same
// solve in reused memory, which also reuses the index of a repeated
// *metric.Points instance, and its prefix-count table under repeated
// weights.
func PartialOpt(c metric.Costs, w []float64, k int, t float64, o Opt) Solution {
	return (*Scratch)(nil).Partial(c, w, k, t, o)
}

// Scratch is the reusable working memory of the fast engine's solve: every
// buffer it sizes by nc·nf — the cost matrix (8 bytes a cell), the packed
// cells and the radix sort's second buffer (8 each, over the upper triangle
// only for a *metric.Points instance; one of them then holds the probes'
// prefix-count table), the rank-tagged per-client facility orders (8) — and
// the probes' other arrays. The zero value is ready. Buffers grow to the largest
// instance solved, up to maxScratchBytes: a solve that leaves more drops
// them all. A Scratch serves one solve at a time; the Solution a solve
// returns never aliases it.
//
// The probes' arrays are overwritten before they are read. The ball index
// (cost matrix, facility orders, candidate radii) is kept with a key, a copy
// of the *metric.Points instance it was built from: metric, point count,
// and every point's dimension and coordinates. The next solve reads the
// index again only when its instance matches the key bit for bit (weights,
// k and t may differ, and only the probes read them); any other instance
// clears the key before it writes the first index buffer, so nothing an
// earlier solve left can reach a result. The prefix-count table is kept
// the same way, keyed on the weights it was built with, and only over the
// index it was built on: an index build clears its key. This is the
// coordinator-side twin of a site's TraversalMemo: Algorithm 2's sites are
// deterministic, so a fleet's coordinator solves the same preclusters, with
// the same counts, job after job.
type Scratch struct {
	cost         []float64
	cells, radix []uint64 // the radix sort's two buffers; either may end sorted
	near         []uint64
	column       []int32 // 0, 1, ..., nf-1: the clients of a triangle row's cost column
	fill         []int   // per client: how much of its near row the scatter has written
	// The index's key (empty: none), its candidate radii, a prefix of the
	// spent radix buffer, and the other radix buffer, which the index no
	// longer reads (ballIndex.spare).
	key          []float64
	radii, spare []uint64
	// The probes' arrays: reach holds the reach and its bracket (probe),
	// unc the uncovered and the newly covered clients.
	gains          []float64
	reach, unc     []int
	centers, bestC []int
	// The weights the prefix-count table in spare was built with (empty:
	// none).
	countsKey []float64
}

// maxScratchBytes bounds what a Scratch keeps between solves: about nine
// times a fanin-tree coordinator's instance (384 clients, about 3.6 MB) and
// above a 1,000-point central solve's (about 24 MB). A larger instance,
// 2,500 clients say, solves in buffers of about 145 MiB that are dropped,
// key and all, as soon as its Solution is built.
const maxScratchBytes = 32 << 20

// bytes is the capacity of s's buffers in bytes; radii and spare alias the
// radix buffers and are not counted again.
func (s *Scratch) bytes() int {
	return 8*(cap(s.cost)+cap(s.cells)+cap(s.radix)+cap(s.near)+cap(s.fill)+cap(s.key)+cap(s.countsKey)+
		cap(s.gains)+cap(s.reach)+cap(s.unc)+cap(s.centers)+cap(s.bestC)) +
		4*cap(s.column)
}

// trim drops every buffer of s, and so its key, when they exceed
// maxScratchBytes.
func (s *Scratch) trim() {
	if s.bytes() > maxScratchBytes {
		*s = Scratch{}
	}
}

// keyed reports whether the index in s was built from an instance
// bit-identical to p.
func (s *Scratch) keyed(p *metric.Points) bool {
	key := s.key
	if len(key) < 2 || math.Float64bits(key[0]) != math.Float64bits(float64(p.M)) ||
		math.Float64bits(key[1]) != math.Float64bits(float64(len(p.Pts))) {
		return false
	}
	key = key[2:]
	for _, pt := range p.Pts {
		if len(key) <= len(pt) || math.Float64bits(key[0]) != math.Float64bits(float64(len(pt))) {
			return false
		}
		for i, x := range pt {
			if math.Float64bits(key[1+i]) != math.Float64bits(x) {
				return false
			}
		}
		key = key[1+len(pt):]
	}
	return len(key) == 0
}

// setKey records p as the instance s's index describes.
func (s *Scratch) setKey(p *metric.Points) {
	key := append(s.key[:0], float64(p.M), float64(len(p.Pts)))
	for _, pt := range p.Pts {
		key = append(key, float64(len(pt)))
		key = append(key, pt...)
	}
	s.key = key
}

// grow returns buf resliced to n, reallocated when its capacity is short.
// The contents are whatever the last solve left.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Partial is PartialOpt in s's memory; a nil s allocates per call, as
// PartialOpt does, and keeps no key. When c is a *metric.Points
// bit-identical to the instance s last indexed, the solve skips the index
// build (the matrix fill, the sort and the scatter: about 70% of a
// fanin-tree coordinator's solve) and runs only the probes. Its result is
// PartialOpt's, bit for bit, whatever s solved before.
func (s *Scratch) Partial(c metric.Costs, w []float64, k int, t float64, o Opt) Solution {
	nc, nf := c.Clients(), c.Facilities()
	if o.Reference || nc*nf > maxPartialMatrix {
		return partialReference(c, w, k, t)
	}
	if nc == 0 || k <= 0 || nf == 0 {
		return Solution{}
	}
	var totalW float64
	for j := 0; j < nc; j++ {
		totalW += weightAt(w, j)
	}
	if totalW <= t {
		return Solution{Centers: []int{0}, Radius: 0}
	}
	keep := s != nil
	if keep {
		defer s.trim()
	} else {
		s = new(Scratch)
	}
	ix, ok := s.index(c, o.Workers, keep)
	if !ok {
		return partialReference(c, w, k, t)
	}

	// Everything a probe touches is sized here, once a solve.
	_, sym := c.(*metric.Points)
	s.gains, s.reach, s.unc = grow(s.gains, nf), grow(s.reach, 3*nc), grow(s.unc, 2*nc)
	if m := min(k, nf); cap(s.centers) < m {
		s.centers, s.bestC = make([]int, 0, m), make([]int, 0, m)
	}
	p := probe{ballIndex: ix, nf: nf, w: w, k: k, t: t, total: totalW, sym: sym,
		reach: s.reach[:nc], lo: s.reach[nc : 2*nc], hi: s.reach[2*nc:],
		gains: s.gains, unc: s.unc[:nc], covered: s.unc[nc:], centers: s.centers[:0]}
	for j := range p.lo {
		p.lo[j], p.hi[j] = 0, nf
	}
	if sym && counted(w, nc) {
		p.counts = s.countTable(ix, w, nc, keep)
	}

	lo, hi := 0, len(ix.radii)-1
	if !p.feasible(hi) {
		// Even the largest candidate fails (can happen only with k <
		// effective clusters); fall back to greedy top-k facilities.
		out := slices.Clone(p.centers)
		return Solution{Centers: out, Radius: ix.evalMax(nf, w, out, t)}
	}
	best := append(s.bestC[:0], p.centers...)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.feasible(mid) {
			best = append(best[:0], p.centers...)
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	out := slices.Clone(best)
	return Solution{Centers: out, Radius: ix.evalMax(nf, w, out, t)}
}

// evalMax is EvalMaxOpt(c, w, centers, t) read off the index's cost matrix,
// whose cells are c's Cost(j, f) floats bit for bit: the same strict
// comparisons in center order, the same pair sort and budget walk, without
// a call through the oracle.
func (ix *ballIndex) evalMax(nf int, w []float64, centers []int, t float64) float64 {
	ds := make([]cd, len(ix.cost)/nf)
	for j := range ds {
		row := ix.cost[j*nf : (j+1)*nf]
		dmin := math.Inf(1)
		for _, f := range centers {
			if d := row[f]; d < dmin {
				dmin = d
			}
		}
		ds[j] = cd{d: dmin, w: weightAt(w, j)}
	}
	return keptMax(ds, t)
}

// weightAt is client j's weight; nil weights are unit weights.
func weightAt(w []float64, j int) float64 {
	if w == nil {
		return 1
	}
	return w[j]
}

// maxCountedTotal is the largest total weight the probes' integer path
// takes: a prefix-count cell (uint32) holds every partial sum of it, and a
// float64 holds each one exactly.
const maxCountedTotal = math.MaxUint32

// counted reports whether the nc weights w (nil: unit weights) are
// non-negative integers totalling at most maxCountedTotal. Then every sum of
// them that Partial forms is exact, whatever the order of its additions:
// integer gains equal the reference's float gains bit for bit.
func counted(w []float64, nc int) bool {
	if w == nil {
		return uint64(nc) <= maxCountedTotal
	}
	var sum float64
	for _, x := range w {
		if !(x >= 0 && x == math.Trunc(x)) {
			return false
		}
		if sum += x; sum > maxCountedTotal {
			return false
		}
	}
	return true
}

// countTable fills the prefix-count table of the index ix under the
// counted weights w: cell f*n+q (countAt) is the total weight of
// near[f*n : f*n+q+1], facility f's q+1 nearest clients. The table takes
// no memory of its own: its n*n cells of 32 bits are packed two to a word
// into ix.spare, the radix sort's buffer the index no longer reads, which
// holds n(n+1)/2 words for a *metric.Points instance. With keep set it
// records w as the table's key (countsKey) and refills only when w differs
// from it, bit for bit; an index build clears that key.
func (s *Scratch) countTable(ix ballIndex, w []float64, n int, keep bool) []uint64 {
	tab := ix.spare[:(n*n+1)/2]
	same := len(s.countsKey) == n
	for j := 0; same && j < n; j++ {
		same = math.Float64bits(s.countsKey[j]) == math.Float64bits(weightAt(w, j))
	}
	if same {
		return tab
	}
	if keep {
		s.countsKey = grow(s.countsKey, n)
		for j := range s.countsKey {
			s.countsKey[j] = weightAt(w, j)
		}
	}
	for f := 0; f < n; f++ {
		var sum uint64
		for q, x := range ix.near[f*n : (f+1)*n] {
			sum += uint64(weightAt(w, int(uint32(x))))
			if i := f*n + q; i%2 == 0 {
				tab[i/2] = sum
			} else {
				tab[i/2] |= sum << 32
			}
		}
	}
	return tab
}

// countAt returns cell i of a prefix-count table packed by countTable.
func countAt(tab []uint64, i int) uint32 { return uint32(tab[i/2] >> (i % 2 * 32)) }

// probe is one solve's greedy disk cover over a ball index; feasible(m)
// runs Charikar et al.'s k greedy rounds at the m-th candidate radius. It
// reads balls off the index's rank-tagged rows (8 bytes a cell) and the
// cost matrix only for the probed radius and the 3r test. All its slices
// are a Scratch's.
type probe struct {
	ballIndex
	nf    int
	w     []float64 // nil: unit weights
	k     int
	t     float64
	total float64
	sym   bool // the index is a *metric.Points': cost[j*nf+f] == cost[f*nf+j]
	// reach[j]: how many of near's row j lie within the probed radius. It
	// lies in [lo[j], hi[j]], the reach at the largest radius found
	// infeasible and at the smallest found feasible so far (0 and nf before
	// the first probe), and is searched only there.
	reach, lo, hi []int
	gains         []float64
	unc, covered  []int
	centers       []int
	// counts, set for counted weights on a *metric.Points instance, is
	// every row's prefix-count table (countTable).
	counts []uint64
}

// feasible runs the greedy rounds at candidate radius m into p.centers and
// reports whether they leave at most t weight uncovered, then narrows every
// client's reach bracket to m's side. A facility lies within the radius
// exactly when its rank is at most m, i.e. when its tagged entry is below
// (m+1)<<32, so each reach is one contiguous binary search over the
// client's own row, one integer compare a step.
func (p *probe) feasible(m int) bool {
	nf, above := p.nf, uint64(m+1)<<32
	for j, lo := range p.lo {
		row := p.near[j*nf : (j+1)*nf]
		hi := p.hi[j]
		for lo < hi {
			if mid := (lo + hi) / 2; row[mid] < above {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p.reach[j] = lo
	}
	ok := p.cover(p.radius(m))
	if ok {
		p.hi, p.reach = p.reach, p.hi
	} else {
		p.lo, p.reach = p.reach, p.lo
	}
	return ok
}

// cover is the greedy rounds of feasible. A round's gains are pushed from
// the uncovered clients, in ascending client order, into the facilities of
// their r-balls: every gain is the sum of exactly the weights the
// reference scan adds, in its order, so gains, picks (ties toward the
// lowest facility index) and the probe sequence are partialReference's for
// any weights. With a prefix-count table every sum is an exact integer, so
// order no longer matters: round 1's gains are read off the table (the
// instance is symmetric, so facility f's r-ball is its own near row's
// prefix), and a later round's are the last round's less the balls of the
// clients it covered, or pushed afresh from the uncovered ones when their
// balls are the fewer cells. The 3r cover test reads down the picked
// facility's cost column, or along its row where the two are the same bits.
func (p *probe) cover(r float64) bool {
	nf, near, gains := p.nf, p.near, p.gains
	unc, covered := p.unc, p.covered[:0]
	for j := range unc {
		unc[j] = j
	}
	if p.counts != nil {
		for f, m := range p.reach {
			gains[f] = 0
			if m > 0 {
				gains[f] = float64(countAt(p.counts, f*nf+m-1))
			}
		}
	}
	// The cells of the uncovered and of the last round's covered clients'
	// balls.
	uncCells, coveredCells := 0, 0
	remaining := p.total
	p.centers = p.centers[:0]
	for it := 0; it < p.k && remaining > p.t+1e-12; it++ {
		if p.counts != nil && it > 0 && coveredCells <= uncCells {
			for _, j := range covered {
				wj := weightAt(p.w, j)
				for _, x := range near[j*nf : j*nf+p.reach[j]] {
					gains[uint32(x)] -= wj
				}
			}
		} else if p.counts == nil || it > 0 {
			clear(gains)
			for _, j := range unc {
				wj := weightAt(p.w, j)
				for _, x := range near[j*nf : j*nf+p.reach[j]] {
					gains[uint32(x)] += wj
				}
			}
		}
		bestF, bestGain := -1, -1.0
		for f, gain := range gains {
			if gain > bestGain {
				bestGain, bestF = gain, f
			}
		}
		if bestF < 0 {
			break
		}
		p.centers = append(p.centers, bestF)
		at, stride := bestF, nf
		if p.sym {
			at, stride = bestF*nf, 1
		}
		kept := unc[:0]
		covered = covered[:0]
		uncCells, coveredCells = 0, 0
		for _, j := range unc {
			if p.cost[at+j*stride] > 3*r {
				kept = append(kept, j)
				uncCells += p.reach[j]
				continue
			}
			remaining -= weightAt(p.w, j)
			covered = append(covered, j)
			coveredCells += p.reach[j]
		}
		unc = kept
	}
	return remaining <= p.t+1e-12
}

// ballIndex is the fast engine's one-time view of a cost oracle: what a
// feasibility probe needs to read balls off as prefixes. Its slices are a
// Scratch's; near is 8 bytes a cell, the facility in the low 32 bits so
// that the rank tag above it orders each row as its costs do. The cost
// matrix stays for radius(m), the 3r cover test and the chosen centers'
// objective (ballIndex.evalMax).
type ballIndex struct {
	cost []float64 // row-major client x facility matrix: cost[j*nf+f]
	// near[j*nf:(j+1)*nf] holds the facilities by ascending cost to client
	// j, each as rank<<32 | facility, rank being its cost's index in radii.
	near  []uint64
	radii []uint64 // one packed cell per distinct cost, ascending: the candidate radii
	// spare is the radix sort's other buffer, which the index does not
	// read once built; the probes keep their prefix-count table there.
	spare []uint64
}

// radius returns candidate m as a float.
func (ix *ballIndex) radius(m int) float64 { return ix.cost[uint32(ix.radii[m])] }

// index returns the ball index of c: the one s holds when c is a
// *metric.Points matching s's key, else a new build, which s keys when
// keep is set and c is a *metric.Points. The key is cleared before the
// build writes anything, so a failed build is never reused.
func (s *Scratch) index(c metric.Costs, workers int, keep bool) (ballIndex, bool) {
	p, _ := c.(*metric.Points)
	if p != nil && s.keyed(p) {
		n := len(p.Pts)
		return ballIndex{cost: s.cost[:n*n], near: s.near[:n*n], radii: s.radii, spare: s.spare}, true
	}
	s.key, s.radii, s.spare, s.countsKey = s.key[:0], nil, nil, s.countsKey[:0]
	ix, ok := s.newBallIndex(c, workers)
	if ok && keep && p != nil {
		s.setKey(p)
		s.radii, s.spare = ix.radii, ix.spare
	}
	return ix, ok
}

// newBallIndex fills the cost matrix (rows spread over workers) and sorts
// its cells once, all in s's buffers. A cell is packed into 8 bytes — the
// top 32 bits of its cost's IEEE-754 pattern, which for non-negative
// non-NaN floats orders like the value, over its 32-bit matrix index — so
// one pass over the sorted cells yields both products: the first cell of
// every distinct cost is a candidate radius, the set partialReference sorts
// and dedups, and scattering each cell to its client's row, tagged with the
// index of its radius, gives every row in ascending cost, and so ascending
// tag, order. Which of several equal costs comes first is immaterial: they
// share a rank, and a ball holds all of them or none. The scatter
// recovers a cell's (j, f) from its 32-bit index with one 32-bit division,
// which older x86 cores run several times faster than a 64-bit one. ok is
// false when a cost is negative or NaN, whose bits do not order like values.
//
// A *metric.Points oracle is bitwise symmetric by construction — (a-b)^2
// == (b-a)^2 and |a-b| == |b-a| in IEEE arithmetic, summed in the same
// coordinate order — so only the upper triangle f >= j is asked for and
// sorted, and each cell is scattered to both rows. Row j of the triangle is
// facility j's cost column over clients j..nf-1 (metric.CostColumn: the
// metric resolved once a row, exactly the Cost(j, f) floats by that
// symmetry), and the lower triangle is then mirrored from it in cache-sized
// tiles (mirror). The shortcut is keyed on that concrete type, never on nc
// == nf or metric.Space: a Matrix may differ in the last bit, and
// uncertain.Collapsed (l_j + d(y_j, y_f)) is asymmetric outright.
func (s *Scratch) newBallIndex(c metric.Costs, workers int) (ix ballIndex, ok bool) {
	nc, nf := c.Clients(), c.Facilities()
	_, sym := c.(*metric.Points)
	// Row j owns the cells [first(j), nf) of the matrix, stored from
	// start(j) on.
	first := func(j int) int {
		if sym {
			return j
		}
		return 0
	}
	start := func(j int) int { return j*nf - first(j)*(first(j)-1)/2 }
	s.cost = grow(s.cost, nc*nf)
	s.cells, s.radix = grow(s.cells, start(nc)), grow(s.radix, start(nc))
	cost, cells := s.cost, s.cells
	if sym {
		s.column = grow(s.column, nf)
		for f := range s.column {
			s.column[f] = int32(f)
		}
	}
	column := s.column
	var unordered atomic.Bool
	par.For(workers, nc, func(j int) {
		lo := first(j)
		row := cost[j*nf+lo : (j+1)*nf]
		if sym {
			metric.CostColumn(c, j, column[lo:], row)
		} else {
			for f := range row {
				row[f] = c.Cost(j, f)
			}
		}
		packed := cells[start(j):start(j+1)]
		for i, d := range row {
			// -0.0 is the same radius as +0.0 (sort.Float64s and
			// dedupFloats treat them alike) but has the sign bit set.
			var key uint64
			if d != 0 {
				key = math.Float64bits(d)
			}
			if key > math.Float64bits(math.Inf(1)) {
				unordered.Store(true)
			}
			packed[i] = key&^math.MaxUint32 | uint64(j*nf+lo+i)
		}
	})
	if unordered.Load() {
		return ballIndex{}, false
	}
	if sym {
		mirror(cost, nf)
	}
	sorted, spent := sortCells(cells, s.radix, cost)

	s.near, s.fill = grow(s.near, nc*nf), grow(s.fill, nc)
	near, fill := s.near, s.fill
	clear(fill)
	radii := spent[:0] // never longer than the cells already read
	for i, cell := range sorted {
		idx := uint32(cell)
		// Cells that differ in their high halves differ in cost; only
		// the others need the matrix to tell.
		if i == 0 || cell>>32 != sorted[i-1]>>32 || cost[idx] != cost[uint32(sorted[i-1])] {
			radii = append(radii, cell)
		}
		rank := uint64(len(radii)-1) << 32
		j := int(idx / uint32(nf))
		f := int(idx) - j*nf
		near[j*nf+fill[j]] = rank | uint64(f)
		fill[j]++
		if sym && f != j {
			near[f*nf+fill[f]] = rank | uint64(j)
			fill[f]++
		}
	}
	return ballIndex{cost: cost, near: near, radii: radii, spare: sorted}, true
}

// mirrorTile is mirror's tile edge: the tile read and the tile written, 2 x
// 32 x 32 floats, take 16 KiB of L1.
const mirrorTile = 32

// mirror copies the upper triangle of the n x n row-major matrix m onto its
// lower triangle, m[i*n+j] = m[j*n+i] for j < i, one tile pair at a time:
// the source tile is read down its columns and the mirrored tile written
// along its rows, both inside L1, where a per-cell copy would write down a
// column of the whole matrix, one cache line per cell.
func mirror(m []float64, n int) {
	for ib := 0; ib < n; ib += mirrorTile {
		ie := min(ib+mirrorTile, n)
		for jb := 0; jb < ie; jb += mirrorTile {
			je := min(jb+mirrorTile, n)
			for i := ib; i < ie; i++ {
				dst := m[i*n : i*n+min(je, i)]
				for j := jb; j < len(dst); j++ {
					dst[j] = m[j*n+i]
				}
			}
		}
	}
}

// sortCells orders packed cells by cost[index] ascending and returns the
// sorted buffer and the spent one. The high halves go through an LSD radix
// sort, three 11-bit digits (2048 counters a pass stay in L1; the sign bit
// is clear); runs that still tie there — equal costs, or costs that agree
// in their first 20 mantissa bits — are then ordered by the full float in
// the matrix.
func sortCells(src, dst []uint64, cost []float64) (sorted, spent []uint64) {
	const digit, mask = 11, 1<<11 - 1
	var count [3][mask + 1]uint32
	for _, c := range src {
		count[0][c>>32&mask]++
		count[1][c>>(32+digit)&mask]++
		count[2][c>>(32+2*digit)]++
	}
	for p := range count {
		shift, cnt := 32+digit*p, &count[p]
		if int(cnt[src[0]>>shift&mask]) == len(src) {
			continue // every key shares this digit
		}
		sum := uint32(0)
		for d, n := range cnt {
			cnt[d] = sum
			sum += n
		}
		for _, c := range src {
			d := c >> shift & mask
			dst[cnt[d]] = c
			cnt[d]++
		}
		src, dst = dst, src
	}
	// pdqsort is linear on the all-equal runs duplicate points make.
	byCost := func(a, b uint64) int { return cmp.Compare(cost[uint32(a)], cost[uint32(b)]) }
	for lo := 0; lo < len(src); {
		hi := lo + 1
		for hi < len(src) && src[hi]>>32 == src[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(src[lo:hi], byCost)
		}
		lo = hi
	}
	return src, dst
}
