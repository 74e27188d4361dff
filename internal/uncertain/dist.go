// Package uncertain implements Section 5 of the paper: partial clustering
// of uncertain data, where each input node is an independent discrete
// distribution over a finite metric ground set P.
//
// It provides the probability substrate (expected, squared-expected and
// truncated-expected distances; exact 1-medians/1-means), the compressed
// graph of Definition 5.2 (Figure 1), the communication-efficient
// distributed algorithms for uncertain (k,t)-median/means/center-pp
// (Algorithm 3) and the parametric-search algorithm for (k,t)-center-g
// (Algorithm 4).
package uncertain

import (
	"fmt"
	"math"

	"dpc/internal/metric"
)

// Ground is the finite metric ground set P every node distribution lives on.
type Ground struct {
	Pts []metric.Point
}

// N returns |P|.
func (g *Ground) N() int { return len(g.Pts) }

// Dist returns d(u,v) between ground points.
func (g *Ground) Dist(u, v int) float64 { return metric.L2(g.Pts[u], g.Pts[v]) }

// DistTo returns d(P[u], p) against an arbitrary point.
func (g *Ground) DistTo(u int, p metric.Point) float64 { return metric.L2(g.Pts[u], p) }

// MinMax returns the smallest nonzero and largest pairwise distance of P
// (d_min and d_max of Algorithm 4; Delta = d_max/d_min).
func (g *Ground) MinMax() (dmin, dmax float64) {
	return metric.MinMaxDist(metric.NewPoints(g.Pts))
}

// Node is one uncertain input node: an independent discrete distribution
// over ground-set indices. Probabilities must be positive and sum to 1.
type Node struct {
	Support []int
	Prob    []float64
}

// Validate checks the node's distribution.
func (nd Node) Validate(g *Ground) error {
	if len(nd.Support) == 0 || len(nd.Support) != len(nd.Prob) {
		return fmt.Errorf("uncertain: malformed node (%d support, %d prob)", len(nd.Support), len(nd.Prob))
	}
	sum := 0.0
	for i, p := range nd.Prob {
		if !(p > 0) || math.IsInf(p, 1) {
			return fmt.Errorf("uncertain: probability %g out of range", p)
		}
		if nd.Support[i] < 0 || nd.Support[i] >= g.N() {
			return fmt.Errorf("uncertain: support index %d out of range", nd.Support[i])
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("uncertain: probabilities sum to %g", sum)
	}
	return nil
}

// ExpectedDist returns E_sigma[d(sigma(j), p)] for node j against point p.
func ExpectedDist(g *Ground, nd Node, p metric.Point) float64 {
	var s float64
	for i, u := range nd.Support {
		s += nd.Prob[i] * g.DistTo(u, p)
	}
	return s
}

// ExpectedSqDist returns E_sigma[d^2(sigma(j), p)].
func ExpectedSqDist(g *Ground, nd Node, p metric.Point) float64 {
	var s float64
	for i, u := range nd.Support {
		d := g.DistTo(u, p)
		s += nd.Prob[i] * d * d
	}
	return s
}

// TruncExpectedDist returns rho_tau(j, p) = E_sigma[L_tau(sigma(j), p)]
// with L_tau(x,y) = max{d(x,y) - tau, 0} (Definition 5.7).
func TruncExpectedDist(g *Ground, nd Node, p metric.Point, tau float64) float64 {
	var s float64
	for i, u := range nd.Support {
		if d := g.DistTo(u, p) - tau; d > 0 {
			s += nd.Prob[i] * d
		}
	}
	return s
}

// CandidateSet selects where 1-medians are searched (Definition 5.1
// restricts them to P; scanning all of P costs |P| evaluations per node,
// scanning the node's own support is the O(m)-style fast path and is exact
// for sharply concentrated distributions).
type CandidateSet int

const (
	// OwnSupport searches the node's own support points (fast default).
	OwnSupport CandidateSet = iota
	// FullGround searches all of P (exact per Definition 5.1).
	FullGround
	// EuclideanSnap runs Weiszfeld iteration on the support (the paper's
	// T = O(m) Euclidean fast path) and snaps the continuous optimum to
	// the nearest support point.
	EuclideanSnap
)

// OneMedian returns the node's 1-median y_j = argmin_{y in C} E[d(sigma,y)]
// and the collapse cost ell_j (Definition 5.1). The returned index is into
// the ground set.
func OneMedian(g *Ground, nd Node, cand CandidateSet) (int, float64) {
	if cand == EuclideanSnap {
		return oneMedianEuclidean(g, nd)
	}
	return argminOver(g, nd, cand, func(p metric.Point) float64 {
		return ExpectedDist(g, nd, p)
	})
}

// OneMean returns y'_j = argmin E[d^2(sigma,y)] and the squared collapse
// cost.
func OneMean(g *Ground, nd Node, cand CandidateSet) (int, float64) {
	if cand == EuclideanSnap {
		return oneMeanEuclidean(g, nd)
	}
	return argminOver(g, nd, cand, func(p metric.Point) float64 {
		return ExpectedSqDist(g, nd, p)
	})
}

func argminOver(g *Ground, nd Node, cand CandidateSet, cost func(metric.Point) float64) (int, float64) {
	bestIdx, bestCost := -1, math.Inf(1)
	try := func(u int) {
		if c := cost(g.Pts[u]); c < bestCost {
			bestCost, bestIdx = c, u
		}
	}
	if cand == FullGround {
		for u := 0; u < g.N(); u++ {
			try(u)
		}
	} else {
		for _, u := range nd.Support {
			try(u)
		}
	}
	return bestIdx, bestCost
}

// Realize samples one realization index of the node using r in [0,1).
func (nd Node) Realize(r float64) int {
	acc := 0.0
	for i, p := range nd.Prob {
		acc += p
		if r < acc {
			return nd.Support[i]
		}
	}
	return nd.Support[len(nd.Support)-1]
}
