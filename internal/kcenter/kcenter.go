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
	// steps is the fast engine's record of the traversal's nearest-center
	// updates, from which AssignPrefixOpt reads every prefix's assignment;
	// nil for a reference-engine traversal. It may record more steps than
	// Order holds (a TraversalMemo prefix shares its memo's record).
	steps *steps
}

// steps records what each step of a farthest-first traversal changed: step
// s (selecting Order[s]) strictly lowered the nearest-selected distance of
// the points pt[end[s-1]:end[s]] (end[-1] = 0), in ascending point order,
// to dist[end[s-1]:end[s]]. Replaying steps 0..r-1 therefore leaves every
// point's nearest center among the first r and its distance to it, exactly
// as a scan over those r centers with strict comparisons finds them. It
// holds one entry per lowering: n for the first step and, on typical data,
// O(n log m) over m steps (at most n·m).
type steps struct {
	end  []int
	pt   []int32
	dist []float64
}

// Gonzalez runs farthest-first traversal on sp, selecting up to m points
// starting from the point `first`. Runtime O(m * n).
func Gonzalez(sp metric.Space, m, first int) Traversal {
	return GonzalezOpt(sp, m, first, Opt{})
}

// GonzalezOpt is Gonzalez with an engine selection. The fast engine spreads
// each step's distance updates over o.Workers goroutines and records them
// (Traversal.steps): the same strict comparisons write the record, so it
// is exact, and AssignPrefixOpt answers every prefix from it without asking
// sp again. The reference engine records nothing.
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
	// comparisons — exactly the sequential first-max scan — and per-block
	// lowerings, appended to the record in block order, so in point order.
	nb := (n + par.BlockSize - 1) / par.BlockSize
	blockFar := make([]float64, nb)
	blockNext := make([]int, nb)
	blockPt := make([][]int32, nb)
	blockDist := make([][]float64, nb)
	rec := &steps{end: make([]int, 0, m)}
	cur := first
	curR := math.Inf(1)
	for len(order) < m {
		order = append(order, cur)
		radii = append(radii, curR)
		c := cur
		par.ForBlocks(o.Workers, n, func(lo, hi int) {
			b := lo / par.BlockSize
			far, next := -1.0, -1
			pt, dist := blockPt[b][:0], blockDist[b][:0]
			for j := lo; j < hi; j++ {
				if d := sp.Dist(j, c); d < dmin[j] {
					dmin[j] = d
					pt = append(pt, int32(j))
					dist = append(dist, d)
				}
				if dmin[j] > far {
					far = dmin[j]
					next = j
				}
			}
			blockFar[b], blockNext[b] = far, next
			blockPt[b], blockDist[b] = pt, dist
		})
		far, next := -1.0, -1
		for b := 0; b < nb; b++ {
			if blockFar[b] > far {
				far, next = blockFar[b], blockNext[b]
			}
			rec.pt = append(rec.pt, blockPt[b]...)
			rec.dist = append(rec.dist, blockDist[b]...)
		}
		rec.end = append(rec.end, len(rec.pt))
		cur, curR = next, far
	}
	return Traversal{Order: order, Radii: radii, steps: rec}
}

// TraversalMemo is a persistent site's memo of the fast engine's
// farthest-first traversal of its shard from point 0, record included. A
// traversal to depth m is exactly the first m steps of any deeper one (the
// selection is deterministic, ties to the first index), so one stored
// traversal serves every job that asks no deeper as a prefix, bit for bit;
// a deeper request recomputes with GonzalezOpt, and once the memo holds the
// whole shard nothing recomputes again. Each prefix carries the memo's
// record, so round 1's AssignPrefixOpt reads its preclustering off it too:
// a job that asks no deeper asks its space for no distance at all. It pays
// on repeated (k,t)-center jobs to one long-lived site (dpc-site,
// client.ServeSite) with k+t no deeper than the memo: every measured job of
// the repo benchmark's fanin-tree, and none of its other three workloads,
// which run no persistent site. A one-shot site has nothing to reuse and
// calls GonzalezOpt itself. The job server's in-process datasets and the
// coordinator's PartialOpt are not served from it; its coordinator-side
// twin is the ball index a Scratch keys on its instance (Scratch.Partial).
// It holds O(n) values plus the record, is safe for concurrent jobs, and
// the zero value is an empty memo.
type TraversalMemo struct {
	mu sync.Mutex
	tr Traversal
}

// Prefix returns GonzalezOpt(sp, m, 0, o) from the memo, recomputing only
// when m is deeper than the memo and the memo is shorter than the shard.
// Every call must pass a space over the same points. The returned slices
// and record are shared with the memo and capped at m: read them, never
// write them.
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
	return Traversal{Order: tm.tr.Order[:m:m], Radii: tm.tr.Radii[:m:m], steps: tm.tr.steps}
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

// AssignPrefixOpt is AssignPrefix with an engine selection. On a traversal
// that carries a record (every fast-engine one) the fast engine replays
// steps 0..r-1 of it and asks sp for no distance: the record holds each
// strict improvement the scan below would find, in the same order. A
// record-less traversal, or o.Reference, runs the scan, which asks sp for
// r distances a point. Either way the weights fold in point order, so
// weighted counts sum in exactly the reference order; sp must be a space
// over the traversal's points.
func (tr Traversal) AssignPrefixOpt(sp metric.Space, r int, w []float64, o Opt) (assign []int, counts []float64, maxDist float64) {
	if r > len(tr.Order) {
		r = len(tr.Order)
	}
	n := sp.N()
	assign = make([]int, n)
	counts = make([]float64, r)
	dist := make([]float64, n)
	if rec := tr.steps; rec != nil && !o.Reference {
		for j := range assign {
			assign[j], dist[j] = -1, math.Inf(1)
		}
		lo := 0
		for s, hi := range rec.end[:r] {
			for i, j := range rec.pt[lo:hi] {
				assign[j], dist[j] = s, rec.dist[lo+i]
			}
			lo = hi
		}
	} else {
		for j := 0; j < n; j++ {
			best, bd := -1, math.Inf(1)
			for c := 0; c < r; c++ {
				if d := sp.Dist(j, tr.Order[c]); d < bd {
					bd = d
					best = c
				}
			}
			assign[j], dist[j] = best, bd
		}
	}
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
// cost, f(q) = sum over r > q of l(r), at every budget of grid (ascending,
// as geom.Grid returns it; its last entry is the largest budget considered).
// l(r) is the insertion radius of the (k+r)-th traversal point (Line 4): the
// marginal saving of the r-th ignored point, 0 once the traversal has run out
// of points. One running sum accumulates from the largest budget downward,
// and each sample is read off it as it passes, so nothing but the result is
// allocated.
func (tr Traversal) SlopeSuffix(k int, grid []int) []float64 {
	out := make([]float64, len(grid))
	i := len(grid) - 1
	tmax := grid[i]
	for i >= 0 && grid[i] == tmax { // f(tmax) = 0
		i--
	}
	var sum float64
	for q := tmax; q >= 1; q-- {
		if idx := k + q - 1; idx < len(tr.Order) {
			sum += tr.Radii[idx]
		}
		for ; i >= 0 && grid[i] == q-1; i-- {
			out[i] = sum
		}
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
// the candidate radii and the other the probes' prefix-count table, 4 bytes
// a cell; a *metric.Points instance packs only its upper triangle, about
// half of this) and the per-client facility orders (4) — about 448 MiB at
// this cap; it also keeps a cell index inside the 32 bits a packed cell has
// for it. Those bytes are a Scratch's: a solve without
// one allocates them afresh, while a fleet's coordinator (jobwire.Fleet,
// through core.Config.CenterScratch) keeps one set across all its jobs, up
// to maxScratchBytes, and with it the ball index of its last *metric.Points
// instance. Larger instances fall back to the oracle-scanning reference
// engine, which neither uses nor keys a Scratch.
const maxPartialMatrix = 16 << 20

// PartialOpt is Partial with an engine selection. The fast engine asks the
// oracle for every cost once (see ballIndex), after which a probe at radius
// r never scans: each client's r-ball is a prefix of its cost-sorted
// facility list, found by a binary search inside the bracket the earlier
// probes left (probe). A greedy round's gains are pushed from the uncovered
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
// PartialOpt allocates its working memory, up to 28 bytes a client-facility
// pair, and builds the ball index on every call; Scratch.Partial is the same
// solve in reused memory, which also reuses the index of a repeated
// *metric.Points instance, and its prefix-count table under repeated
// weights.
func PartialOpt(c metric.Costs, w []float64, k int, t float64, o Opt) Solution {
	return (*Scratch)(nil).Partial(c, w, k, t, o)
}

// Scratch is the reusable working memory of the fast engine's solve: every
// buffer it sizes by nc·nf — the cost matrix, the packed cells and the
// radix sort's second buffer (one of which then holds the probes'
// prefix-count table), the per-client facility orders — and the probes'
// other arrays. The zero value is ready. Buffers grow to the largest
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
	near         []uint32
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

// maxScratchBytes bounds what a Scratch keeps between solves: about ten
// times a fanin-tree coordinator's instance (384 clients, about 3 MB) and
// above a 1,000-point central solve's (about 20 MB). A larger instance,
// 2,500 clients say, solves in buffers of about 120 MiB that are dropped,
// key and all, as soon as its Solution is built.
const maxScratchBytes = 32 << 20

// bytes is the capacity of s's buffers in bytes; radii and spare alias the
// radix buffers and are not counted again.
func (s *Scratch) bytes() int {
	return 8*(cap(s.cost)+cap(s.cells)+cap(s.radix)+cap(s.fill)+cap(s.key)+cap(s.countsKey)+
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
	if !p.feasible(ix.radius(hi)) {
		// Even the largest candidate fails (can happen only with k <
		// effective clusters); fall back to greedy top-k facilities.
		out := slices.Clone(p.centers)
		return Solution{Centers: out, Radius: EvalMaxOpt(c, w, out, t, o)}
	}
	best := append(s.bestC[:0], p.centers...)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.feasible(ix.radius(mid)) {
			best = append(best[:0], p.centers...)
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	out := slices.Clone(best)
	return Solution{Centers: out, Radius: EvalMaxOpt(c, w, out, t, o)}
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
		for q, j := range ix.near[f*n : (f+1)*n] {
			sum += uint64(weightAt(w, int(j)))
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

// probe is one solve's greedy disk cover over a ball index; feasible(r)
// runs Charikar et al.'s k greedy rounds at radius r. All its slices are a
// Scratch's.
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

// feasible runs the greedy rounds at radius r into p.centers and reports
// whether they leave at most t weight uncovered, then narrows every
// client's reach bracket to r's side.
func (p *probe) feasible(r float64) bool {
	nf := p.nf
	for j, lo := range p.lo {
		row, costs := p.near[j*nf:(j+1)*nf], p.cost[j*nf:(j+1)*nf]
		hi := p.hi[j]
		for lo < hi {
			if mid := (lo + hi) / 2; costs[row[mid]] <= r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p.reach[j] = lo
	}
	ok := p.cover(r)
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
				for _, f := range near[j*nf : j*nf+p.reach[j]] {
					gains[f] -= wj
				}
			}
		} else if p.counts == nil || it > 0 {
			clear(gains)
			for _, j := range unc {
				wj := weightAt(p.w, j)
				for _, f := range near[j*nf : j*nf+p.reach[j]] {
					gains[f] += wj
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
// Scratch's.
type ballIndex struct {
	cost  []float64 // row-major client x facility matrix: cost[j*nf+f]
	near  []uint32  // near[j*nf:(j+1)*nf]: the facilities by ascending cost to client j
	radii []uint64  // one packed cell per distinct cost, ascending: the candidate radii
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
