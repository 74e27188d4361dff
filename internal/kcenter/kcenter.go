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
	"sort"
	"sync"
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
	cur := first
	curR := math.Inf(1)
	for len(order) < m {
		order = append(order, cur)
		radii = append(radii, curR)
		c := cur
		par.ForBlocks(o.Workers, n, func(lo, hi int) {
			far, next := -1.0, -1
			for j := lo; j < hi; j++ {
				if d := sp.Dist(j, c); d < dmin[j] {
					dmin[j] = d
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

// TraversalMemo is a persistent site's memo of the fast engine's
// farthest-first traversal of its shard from point 0. A traversal to depth
// m is exactly the first m steps of any deeper one (the selection is
// deterministic, ties to the first index), so one stored traversal serves
// every job that asks no deeper as a prefix, bit for bit; a deeper request
// recomputes with GonzalezOpt, and once the memo holds the whole shard
// nothing recomputes again. It pays on repeated (k,t)-center jobs to one
// long-lived site (dpc-site, client.ServeSite) with k+t no deeper than the
// memo: every measured job of the repo benchmark's fanin-tree, and none of
// its other three workloads, which run no persistent site. A one-shot site
// has nothing to reuse and calls GonzalezOpt itself. Round 1's
// AssignPrefixOpt, the job server's in-process datasets and the
// coordinator's PartialOpt are not served from it; its coordinator-side
// twin is the ball index a Scratch keys on its instance (Scratch.Partial).
// It holds O(n) values, is safe for concurrent jobs, and the zero value is
// an empty memo.
type TraversalMemo struct {
	mu sync.Mutex
	tr Traversal
}

// Prefix returns GonzalezOpt(sp, m, 0, o) from the memo, recomputing only
// when m is deeper than the memo and the memo is shorter than the shard.
// Every call must pass a space over the same points. The returned slices
// are shared with the memo and capped at m: read them, never write them.
func (tm *TraversalMemo) Prefix(sp metric.Space, m int, o Opt) Traversal {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if m > len(tm.tr.Order) && len(tm.tr.Order) < sp.N() {
		tm.tr = GonzalezOpt(sp, m, 0, o)
	}
	m = min(m, len(tm.tr.Order))
	if m <= 0 {
		return Traversal{}
	}
	return Traversal{Order: tm.tr.Order[:m:m], Radii: tm.tr.Radii[:m:m]}
}

// Depth is the number of traversal points the memo holds.
func (tm *TraversalMemo) Depth() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.tr.Order)
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
	par.For(workers(o), n, func(j int) {
		best, bd := -1, math.Inf(1)
		for c := 0; c < r; c++ {
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

// SlopeSuffix samples Algorithm 2's convex surrogate of a site's local
// cost, f(q) = sum over r > q of l(r), at every budget of grid (ascending;
// its last entry is the largest budget considered). l(r) is the insertion
// radius of the (k+r)-th traversal point (Line 4): the marginal saving of
// the r-th ignored point, 0 once the traversal has run out of points. The
// sums accumulate from the largest budget downward.
func (tr Traversal) SlopeSuffix(k int, grid []int) []float64 {
	tmax := grid[len(grid)-1]
	suffix := make([]float64, tmax+2)
	for q := tmax; q >= 1; q-- {
		suffix[q] = suffix[q+1]
		if idx := k + q - 1; idx < len(tr.Order) {
			suffix[q] += tr.Radii[idx]
		}
	}
	out := make([]float64, len(grid))
	for i, q := range grid {
		out[i] = suffix[q+1]
	}
	return out
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
	type cd struct{ d, w float64 }
	ds := make([]cd, n)
	par.For(workers(o), n, func(j int) {
		dmin := math.Inf(1)
		for _, f := range centers {
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
// Runtime: nc*nf oracle calls and one linear-time radix sort of the cells to
// set up, then O(log(nc*nf)) probes, each costing nc*log(nf) plus, per
// greedy round, the sizes of the uncovered clients' r-balls.
func Partial(c metric.Costs, w []float64, k int, t float64) Solution {
	return PartialOpt(c, w, k, t, Opt{})
}

// maxPartialMatrix bounds the dense cost matrix the fast engine
// materializes, in cells. The peak is 28 bytes a cell — the matrix (8), the
// radix sort's two buffers of packed cells (16; the spent one then holds
// the candidate radii; a *metric.Points instance packs only its upper
// triangle, about half of this) and the per-client facility orders (4) —
// about 448 MiB at this cap; it also keeps a cell index inside the 32 bits
// a packed cell has for it. Those bytes are a Scratch's: a solve without
// one allocates them afresh, while a fleet's coordinator (jobwire.Fleet,
// through core.Config.CenterScratch) keeps one set across all its jobs, up
// to maxScratchBytes, and with it the ball index of its last *metric.Points
// instance. Larger instances fall back to the oracle-scanning reference
// engine, which neither uses nor keys a Scratch.
const maxPartialMatrix = 16 << 20

// PartialOpt is Partial with an engine selection. The fast engine asks the
// oracle for every cost once (see ballIndex), after which a probe at radius
// r never scans: each client's r-ball is a prefix of its cost-sorted
// facility list, and a greedy round's gains are pushed from the uncovered
// clients, in ascending client order, into the facilities of those
// prefixes. Every facility's gain is therefore the sum of exactly the
// weights the reference scan adds, in the reference's order, so gains,
// picks (ties toward the lowest facility index) and the probe sequence are
// bit-identical to partialReference for any weights. o.Workers spreads only
// the matrix fill: the sort and the scatter-adds are sequential by design
// (per-worker gain arrays would reorder the sums).
//
// PartialOpt allocates its working memory, up to 28 bytes a client-facility
// pair, and builds the ball index on every call; Scratch.Partial is the same
// solve in reused memory, which also reuses the index of a repeated
// *metric.Points instance.
func PartialOpt(c metric.Costs, w []float64, k int, t float64, o Opt) Solution {
	return (*Scratch)(nil).Partial(c, w, k, t, o)
}

// Scratch is the reusable working memory of the fast engine's solve: every
// buffer it sizes by nc·nf — the cost matrix, the packed cells and the
// radix sort's second buffer, the per-client facility orders — and the
// probes' arrays. The zero value is ready. Buffers grow to the largest
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
// earlier solve left can reach a result. This is the coordinator-side twin
// of a site's TraversalMemo: Algorithm 2's sites are deterministic, so a
// fleet's coordinator solves the same preclusters job after job.
type Scratch struct {
	cost         []float64
	cells, radix []uint64 // the radix sort's two buffers; either may end sorted
	near         []uint32
	column       []int32 // 0, 1, ..., nf-1: the clients of a triangle row's cost column
	fill         []int   // per client: how much of its near row the scatter has written
	// The index's key (empty: none) and its candidate radii, a prefix of
	// the spent radix buffer.
	key   []float64
	radii []uint64
	// The probes' arrays.
	gains          []float64
	reach, unc     []int
	centers, bestC []int
}

// maxScratchBytes bounds what a Scratch keeps between solves: about ten
// times a fanin-tree coordinator's instance (384 clients, about 3 MB) and
// above a 1,000-point central solve's (about 20 MB). A larger instance,
// 2,500 clients say, solves in buffers of about 120 MiB that are dropped,
// key and all, as soon as its Solution is built.
const maxScratchBytes = 32 << 20

// bytes is the capacity of s's buffers in bytes; radii aliases a radix
// buffer and is not counted again.
func (s *Scratch) bytes() int {
	return 8*(cap(s.cost)+cap(s.cells)+cap(s.radix)+cap(s.fill)+cap(s.key)+
		cap(s.gains)+cap(s.reach)+cap(s.unc)+cap(s.centers)+cap(s.bestC)) +
		4*(cap(s.near)+cap(s.column))
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
	cost, near := ix.cost, ix.near

	// Everything a probe touches is sized here, once a solve.
	s.gains, s.reach, s.unc = grow(s.gains, nf), grow(s.reach, nc), grow(s.unc, nc)
	gains, uncBuf := s.gains, s.unc
	reach := s.reach // reach[j]: how many of near's row j lie within r
	if m := min(k, nf); cap(s.centers) < m {
		s.centers, s.bestC = make([]int, 0, m), make([]int, 0, m)
	}
	centers, bestCenters := s.centers[:0], s.bestC[:0]
	feasible := func(r float64) bool {
		// unc is the uncovered-client list, kept in ascending order so
		// every weight sum visits clients exactly as the reference
		// covered[]-flag scan does.
		unc := uncBuf
		for j := range unc {
			unc[j] = j
			row, costs := near[j*nf:(j+1)*nf], cost[j*nf:(j+1)*nf]
			lo, hi := 0, nf
			for lo < hi {
				if mid := (lo + hi) / 2; costs[row[mid]] <= r {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			reach[j] = lo
		}
		remaining := totalW
		centers = centers[:0]
		for it := 0; it < k && remaining > t+1e-12; it++ {
			clear(gains)
			for _, j := range unc {
				wj := weight(j)
				for _, f := range near[j*nf : j*nf+reach[j]] {
					gains[f] += wj
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
			centers = append(centers, bestF)
			kept := unc[:0]
			for _, j := range unc {
				if cost[j*nf+bestF] <= 3*r {
					remaining -= weight(j)
				} else {
					kept = append(kept, j)
				}
			}
			unc = kept
		}
		return remaining <= t+1e-12
	}

	lo, hi := 0, len(ix.radii)-1
	if !feasible(ix.radius(hi)) {
		// Even the largest candidate fails (can happen only with k <
		// effective clusters); fall back to greedy top-k facilities.
		out := slices.Clone(centers)
		return Solution{Centers: out, Radius: EvalMaxOpt(c, w, out, t, o)}
	}
	bestCenters = append(bestCenters[:0], centers...)
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(ix.radius(mid)) {
			bestCenters = append(bestCenters[:0], centers...)
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	out := slices.Clone(bestCenters)
	return Solution{Centers: out, Radius: EvalMaxOpt(c, w, out, t, o)}
}

// ballIndex is the fast engine's one-time view of a cost oracle: what a
// feasibility probe needs to read balls off as prefixes. Its slices are a
// Scratch's.
type ballIndex struct {
	cost  []float64 // row-major client x facility matrix: cost[j*nf+f]
	near  []uint32  // near[j*nf:(j+1)*nf]: the facilities by ascending cost to client j
	radii []uint64  // one packed cell per distinct cost, ascending: the candidate radii
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
		return ballIndex{cost: s.cost[:n*n], near: s.near[:n*n], radii: s.radii}, true
	}
	s.key, s.radii = s.key[:0], nil
	ix, ok := s.newBallIndex(c, workers)
	if ok && keep && p != nil {
		s.setKey(p)
		s.radii = ix.radii
	}
	return ix, ok
}

// newBallIndex fills the cost matrix (rows spread over workers) and sorts
// its cells once, all in s's buffers. A cell is packed into 8 bytes — the
// top 32 bits of its cost's IEEE-754 pattern, which for non-negative
// non-NaN floats orders like the value, over its 32-bit matrix index — so
// one pass over the sorted cells yields both products: scattering each cell
// to its client's row gives every row in ascending cost order, and the
// first cell of every distinct cost is a candidate radius, the set
// partialReference sorts and dedups. Which of several equal costs comes
// first is immaterial: a ball holds all of them or none. The scatter
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
		j := int(idx / uint32(nf))
		f := int(idx) - j*nf
		near[j*nf+fill[j]] = uint32(f)
		fill[j]++
		if sym && f != j {
			near[f*nf+fill[f]] = uint32(j)
			fill[f]++
		}
		// Cells that differ in their high halves differ in cost; only
		// the others need the matrix to tell.
		if i == 0 || cell>>32 != sorted[i-1]>>32 || cost[idx] != cost[uint32(sorted[i-1])] {
			radii = append(radii, cell)
		}
	}
	return ballIndex{cost: cost, near: near, radii: radii}, true
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
