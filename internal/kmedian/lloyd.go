package kmedian

import (
	"math"

	"dpc/internal/metric"
)

// LloydPolish refines a (k,t)-means solution with *unrestricted* Euclidean
// centers, in the k-means-- style (assign, drop the t units of weight with
// the largest squared distances, recompute weighted centroids). The paper
// restricts centers to input points and notes the restriction costs at most
// a factor 2 in Euclidean space (Definition 1.1); this is the other side of
// that trade, available as a final polish when the data is Euclidean.
//
// Returns the polished centers and the weighted partial means cost. The
// cost is non-increasing across iterations and the loop stops at
// convergence or maxIters.
func LloydPolish(pts []metric.Point, w []float64, centers []metric.Point, t float64, maxIters int) ([]metric.Point, float64) {
	if len(pts) == 0 || len(centers) == 0 {
		return centers, 0
	}
	if maxIters <= 0 {
		maxIters = 32
	}
	cur := make([]metric.Point, len(centers))
	all := make([]int, len(centers))
	for i, c := range centers {
		cur[i], all[i] = c.Clone(), i
	}
	dim := len(pts[0])
	costs := metric.Cross{Pts: pts, Centers: cur, Squared: true}
	prevCost := math.Inf(1)
	var cost float64
	for iter := 0; iter < maxIters; iter++ {
		// Assign, and drop the largest t units of weight (fractionally).
		sol := Eval(costs, w, all, t)
		cost = sol.Cost
		if cost >= prevCost-1e-12*(1+prevCost) {
			break
		}
		prevCost = cost
		// Update centroids on the surviving weight.
		sums := make([][]float64, len(cur))
		wsum := make([]float64, len(cur))
		for c := range cur {
			sums[c] = make([]float64, dim)
		}
		for j, p := range pts {
			inW := weight(w, j) - sol.DroppedWeight[j]
			if inW <= 0 {
				continue
			}
			c := sol.Assign[j]
			wsum[c] += inW
			for dd := 0; dd < dim; dd++ {
				sums[c][dd] += inW * p[dd]
			}
		}
		for c := range cur {
			if wsum[c] <= 0 {
				continue // empty cluster keeps its position
			}
			nc := make(metric.Point, dim)
			for dd := 0; dd < dim; dd++ {
				nc[dd] = sums[c][dd] / wsum[c]
			}
			cur[c] = nc
		}
	}
	return cur, cost
}
