// Package exact provides brute-force exact solvers for tiny (k,t)-clustering
// instances. It is the independent ground-truth oracle against which the
// approximation algorithms in kcenter, kmedian and core are validated; it is
// deliberately implemented from first principles (subset enumeration) and
// shares no code with the production solvers.
package exact

import (
	"math"
	"sort"

	"dpc/internal/metric"
)

// Objective selects the aggregate applied to the surviving connection costs.
type Objective int

const (
	// Sum is the (k,t)-median objective (and (k,t)-means when the cost
	// oracle is already squared).
	Sum Objective = iota
	// Max is the (k,t)-center objective.
	Max
)

// Solution is an exact optimum.
type Solution struct {
	Centers []int   // facility indices, len <= k
	Cost    float64 // optimal objective value with t outliers removed
}

// Solve finds the exact optimum of the (k,t)-clustering problem on c:
// choose at most k facilities and discard up to t units of client weight so
// that the objective over the remaining weighted connection costs is
// minimized. w == nil means unit weights. Runtime is C(facilities, k) *
// clients * log(clients); keep instances tiny.
func Solve(c metric.Costs, w []float64, k int, t float64, obj Objective) Solution {
	nf := c.Facilities()
	if k > nf {
		k = nf
	}
	best := Solution{Cost: math.Inf(1)}
	if k == 0 {
		// No centers: feasible only if every client can be discarded.
		if totalWeight(c, w) <= t {
			return Solution{Cost: 0}
		}
		return best
	}
	subset := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			cost := evalPartial(c, w, subset, t, obj)
			if cost < best.Cost {
				best.Cost = cost
				best.Centers = append([]int(nil), subset...)
			}
			return
		}
		for f := start; f <= nf-(k-idx); f++ {
			subset[idx] = f
			rec(f+1, idx+1)
		}
	}
	rec(0, 0)
	return best
}

func totalWeight(c metric.Costs, w []float64) float64 {
	if w == nil {
		return float64(c.Clients())
	}
	var s float64
	for _, x := range w {
		s += x
	}
	return s
}

// evalPartial stays apart from kmedian.Eval on purpose: the oracle shares
// no code with the solvers it checks.
//
// evalPartial computes the objective of the given centers after optimally
// removing up to t units of client weight: for both Sum and Max the optimal
// removal is the largest connection costs first (fractionally for weighted
// clients under Sum).
func evalPartial(c metric.Costs, w []float64, centers []int, t float64, obj Objective) float64 {
	n := c.Clients()
	type cd struct {
		d float64
		w float64
	}
	ds := make([]cd, n)
	for j := 0; j < n; j++ {
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
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	switch obj {
	case Max:
		budget := t
		for _, x := range ds {
			if x.w > budget {
				return x.d
			}
			budget -= x.w
		}
		return 0
	default: // Sum
		var cost float64
		budget := t
		for _, x := range ds {
			if x.w <= budget {
				budget -= x.w
				continue
			}
			keep := x.w - budget
			budget = 0
			cost += keep * x.d
		}
		return cost
	}
}
