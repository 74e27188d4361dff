package kcenter

import (
	"math"
	"sync"

	"dpc/internal/metric"
	"dpc/internal/par"
)

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

// AssignPrefix assigns every point of sp to its nearest center among the
// first r points of the traversal order. It returns the assignment (center
// position in Order, not point index), the weight attached to each center
// (unit weights when w == nil), and the maximum assignment distance.
func (tr Traversal) AssignPrefix(sp metric.Space, r int, w []float64) (assign []int, counts []float64, maxDist float64) {
	return tr.AssignPrefixOpt(sp, r, w, Opt{})
}

// AssignPrefixOpt is AssignPrefix with an engine selection. On a traversal
// that carries a record (every fast-engine one) the fast engine reads steps
// r-1 down to 0 of it and asks sp for no distance: the record holds each
// strict improvement the scan below would find, so a point's newest entry
// is its nearest center and its distance, and the first one met, newest
// first, is the one kept (assign marks the points already met). A
// record-less traversal, or o.Reference, runs the scan, which asks sp for
// r distances a point. A point that no step reached has distance +Inf.
// maxDist is a max, the same in any order; the weights fold in point
// order, so weighted counts sum in exactly the reference order. sp must be
// a space over the traversal's points.
func (tr Traversal) AssignPrefixOpt(sp metric.Space, r int, w []float64, o Opt) (assign []int, counts []float64, maxDist float64) {
	if r > len(tr.Order) {
		r = len(tr.Order)
	}
	n := sp.N()
	assign = make([]int, n)
	counts = make([]float64, r)
	if rec := tr.steps; rec != nil && !o.Reference {
		for j := range assign {
			assign[j] = -1
		}
		for s := r - 1; s >= 0; s-- {
			lo := 0
			if s > 0 {
				lo = rec.end[s-1]
			}
			for i, j := range rec.pt[lo:rec.end[s]] {
				if assign[j] < 0 {
					assign[j] = s
					maxDist = max(maxDist, rec.dist[lo+i])
				}
			}
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
			assign[j] = best
			maxDist = max(maxDist, bd)
		}
	}
	for j, a := range assign {
		if a >= 0 {
			counts[a] += weightAt(w, j)
		} else {
			maxDist = math.Inf(1)
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
