package kcenter

import (
	"math"
	"sort"

	"dpc/internal/metric"
)

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
