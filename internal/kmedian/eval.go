// Package kmedian implements the k-median/k-means machinery of the paper:
// weighted partial-cost evaluation (outliers dropped greedily by distance),
// a swap-based local-search engine for (k,t)-median with outliers, the
// Jain-Vazirani primal-dual facility-location algorithm with an outlier stop
// (Appendix B), and the Theorem 3.1 bicriteria solver built from them.
//
// All engines consume the metric.Costs oracle, so they serve the plain
// Euclidean case, the (k,t)-means case (squared costs), the compressed
// graph of Section 5 and the truncated rho_tau costs of Definition 5.7.
package kmedian

import (
	"math"
	"slices"
	"sort"

	"dpc/internal/metric"
	"dpc/internal/par"
)

// Solution is a (k,t)-median/means solution over a Costs oracle.
type Solution struct {
	// Centers are facility indices, at most k of them.
	Centers []int
	// Cost is the partial connection cost: the weighted sum of client
	// connection costs after discarding up to the outlier budget of weight.
	Cost float64
	// Budget is the outlier budget the solution was evaluated with.
	Budget float64
	// DroppedWeight[j], when non-nil, is the amount of client j's weight
	// discarded as outlier (fractional for weighted clients).
	DroppedWeight []float64
	// Assign[j] is the facility serving client j (its nearest center), or
	// -1 when the instance has no centers.
	Assign []int
}

// Outliers returns the indices of clients with any dropped weight, in
// increasing client-index order.
func (s Solution) Outliers() []int {
	var out []int
	for j, w := range s.DroppedWeight {
		if w > 0 {
			out = append(out, j)
		}
	}
	return out
}

// CenterWeights returns, aligned with Centers, the inlier weight attached
// to each center when clients carry unit weights: every served client adds
// whatever part of its weight was not dropped, in increasing client-index
// order (the order fixes the float sums a site puts on the wire).
func (s Solution) CenterWeights() []float64 {
	idx := make(map[int]int, len(s.Centers))
	for i, f := range s.Centers {
		idx[f] = i
	}
	w := make([]float64, len(s.Centers))
	for j, f := range s.Assign {
		if f < 0 {
			continue
		}
		if in := 1 - s.DroppedWeight[j]; in > 0 {
			w[idx[f]] += in
		}
	}
	return w
}

// weight returns client j's weight under w (nil = unit weights).
func weight(w []float64, j int) float64 {
	if w == nil {
		return 1
	}
	return w[j]
}

// TotalWeight sums client weights.
func TotalWeight(c metric.Costs, w []float64) float64 {
	if w == nil {
		return float64(c.Clients())
	}
	var s float64
	for _, x := range w {
		s += x
	}
	return s
}

// Eval computes the full evaluation of centers on (c, w) with outlier
// budget t: each client connects to its cheapest center; the t units of
// weight with the largest connection costs are discarded (fractionally for
// weighted clients, per Remark 1(ii) — the coordinator may exclude only
// some copies of an aggregated point).
func Eval(c metric.Costs, w []float64, centers []int, t float64) Solution {
	return EvalP(c, w, centers, t, 1)
}

// EvalP is Eval with the per-client assignment loop spread over at most
// `workers` goroutines. Each client's nearest-center scan is self-contained
// and writes only its own slots, so the result is bit-identical to Eval for
// every worker count.
func EvalP(c metric.Costs, w []float64, centers []int, t float64, workers int) Solution {
	n := c.Clients()
	sol := Solution{
		Centers:       append([]int(nil), centers...),
		Budget:        t,
		Assign:        make([]int, n),
		DroppedWeight: make([]float64, n),
	}
	d := make([]float64, n)
	order := make([]int, n)
	par.For(workers, n, func(j int) {
		best, bd := -1, math.Inf(1)
		for _, f := range centers {
			if x := c.Cost(j, f); x < bd {
				bd, best = x, f
			}
		}
		sol.Assign[j] = best
		d[j] = bd
		order[j] = j
	})
	if len(centers) == 0 {
		// Degenerate: cost is defined only if everything fits in the budget.
		if TotalWeight(c, w) <= t {
			for j := 0; j < n; j++ {
				sol.DroppedWeight[j] = weight(w, j)
			}
			return sol
		}
		sol.Cost = math.Inf(1)
		return sol
	}
	sort.Slice(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })
	budget := t
	var cost float64
	for _, j := range order {
		wj := weight(w, j)
		if wj <= budget {
			budget -= wj
			sol.DroppedWeight[j] = wj
			continue
		}
		if budget > 0 {
			sol.DroppedWeight[j] = budget
			wj -= budget
			budget = 0
		}
		cost += wj * d[j]
	}
	sol.Cost = cost
	return sol
}

// descBy is the slices.SortFunc comparator of the index sort whose
// reference uses sort.Slice with less key[a] > key[b]. sort.Slice and
// slices.SortFunc are the same pdqsort, generated from one template
// (sort/gen_sort_variants.go), which consults the comparison only as
// less(a, b), i.e. cmp(a, b) < 0. descBy returns -1 exactly where that less
// holds, so with it SortFunc makes sort.Slice's permutation, ties and NaNs
// included (TestSortFuncMatchesSortSlice pins it). cmp.Compare would not:
// it orders NaN first.
func descBy(key []float64) func(a, b int) int {
	return func(a, b int) int {
		switch x, y := key[a], key[b]; {
		case x > y:
			return -1
		case x < y:
			return 1
		}
		return 0
	}
}

// eval is EvalP for the descent: it evaluates the centers whose cost columns
// are sc.rows with outlier budget t, reading columns instead of the oracle,
// and returns the partial cost. Per client it makes EvalP's strict
// comparisons in center order, and it sorts the same identity-initialized
// order, with slices.SortFunc under descBy — sort.Slice's permutation — on
// the same costs, so the cost, the assignment (a1) and — on ties — the
// clients the budget lands on come out bit for bit EvalP's. Beside them it leaves what the next round reads: the
// second-nearest cost d2, the sorted order and the inlier weights inW.
func (sc *Scratch) eval(w []float64, t float64, workers int) float64 {
	d1, d2, a1, order := sc.d1, sc.d2, sc.a1, sc.order
	par.ForBlocks(workers, sc.nc, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			d1[j], d2[j], a1[j], order[j] = math.Inf(1), math.Inf(1), -1, j
		}
		for p, row := range sc.rows {
			for j := lo; j < hi; j++ {
				if x := row[j]; x < d1[j] {
					d1[j], d2[j], a1[j] = x, d1[j], p
				} else if x < d2[j] {
					d2[j] = x
				}
			}
		}
	})
	slices.SortFunc(order, descBy(d1))
	clear(sc.dropped)
	budget := t
	var cost float64
	for _, j := range order {
		wj := weight(w, j)
		if wj <= budget {
			budget -= wj
			sc.dropped[j] = wj
			continue
		}
		if budget > 0 {
			sc.dropped[j] = budget
			wj -= budget
			budget = 0
		}
		cost += wj * d1[j]
	}
	for j, dw := range sc.dropped {
		sc.inW[j] = weight(w, j) - dw
	}
	return cost
}

// solution is the Solution of the centers eval last evaluated, cost being
// what it returned for budget t. Every slice is the solution's own.
func (sc *Scratch) solution(cost, t float64) Solution {
	sol := Solution{
		Centers:       slices.Clone(sc.centers),
		Cost:          cost,
		Budget:        t,
		DroppedWeight: slices.Clone(sc.dropped),
		Assign:        make([]int, sc.nc),
	}
	for j, p := range sc.a1 {
		sol.Assign[j] = -1
		if p >= 0 {
			sol.Assign[j] = sc.centers[p]
		}
	}
	return sol
}

// EvalSum is Eval returning only the cost (avoids the slices). It is the
// reference partial-cost evaluator: the fast engine's swap evaluation
// (descend) must agree with it bit-for-bit, and TestEngineMatchesReference
// and internal/bench's TestAllExperimentsQuick hold it to that.
func EvalSum(c metric.Costs, w []float64, centers []int, t float64) float64 {
	n := c.Clients()
	ds := make([]cd, n)
	for j := 0; j < n; j++ {
		bd := math.Inf(1)
		for _, f := range centers {
			if x := c.Cost(j, f); x < bd {
				bd = x
			}
		}
		ds[j] = cd{d: bd, w: weight(w, j)}
	}
	if len(centers) == 0 {
		if TotalWeight(c, w) <= t {
			return 0
		}
		return math.Inf(1)
	}
	return partialCostPairs(ds, t)
}

// cd is a (connection cost, client weight) pair of the partial-cost walk.
type cd struct{ d, w float64 }

// partialCostPairs drops the t largest units of weight greedily and sums
// the rest — the tail of EvalSum, shared with the fast engine's weighted
// swap evaluation so weighted instances follow the exact same sort and
// summation order (unit weights go through swapEval, whose exact walk adds the
// same value sequence from merged pieces).
func partialCostPairs(ds []cd, t float64) float64 {
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	budget := t
	var cost float64
	for _, x := range ds {
		if x.w <= budget {
			budget -= x.w
			continue
		}
		keep := x.w
		if budget > 0 {
			keep -= budget
			budget = 0
		}
		cost += keep * x.d
	}
	return cost
}
