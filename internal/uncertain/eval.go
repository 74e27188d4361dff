package uncertain

import (
	"math"
	"math/rand"
	"sort"

	"dpc/internal/metric"
)

// assignCosts returns, for every node, the cheapest expected connection
// cost against the given centers (the optimal assigned clustering pi for
// the per-point objectives).
func assignCosts(g *Ground, nodes []Node, centers []metric.Point, squared bool) []float64 {
	out := make([]float64, len(nodes))
	for j, nd := range nodes {
		best := math.Inf(1)
		for _, c := range centers {
			var v float64
			if squared {
				v = ExpectedSqDist(g, nd, c)
			} else {
				v = ExpectedDist(g, nd, c)
			}
			if v < best {
				best = v
			}
		}
		out[j] = best
	}
	return out
}

// dropTop returns the values with the floor(t) largest entries removed.
func dropTop(vals []float64, t float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	drop := int(t)
	if drop > len(sorted) {
		drop = len(sorted)
	}
	return sorted[drop:]
}

// EvalMedian computes the true uncertain (k,t)-median objective (Eq. 1) of
// the centers: sum over surviving nodes of E[d(sigma(j), pi(j))] with the
// optimal assignment and the t most expensive nodes ignored.
func EvalMedian(g *Ground, nodes []Node, centers []metric.Point, t float64) float64 {
	if len(centers) == 0 {
		if float64(len(nodes)) <= t {
			return 0
		}
		return math.Inf(1)
	}
	var sum float64
	for _, v := range dropTop(assignCosts(g, nodes, centers, false), t) {
		sum += v
	}
	return sum
}

// EvalMeans is EvalMedian under squared distances.
func EvalMeans(g *Ground, nodes []Node, centers []metric.Point, t float64) float64 {
	if len(centers) == 0 {
		if float64(len(nodes)) <= t {
			return 0
		}
		return math.Inf(1)
	}
	var sum float64
	for _, v := range dropTop(assignCosts(g, nodes, centers, true), t) {
		sum += v
	}
	return sum
}

// EvalCenterPP computes the uncertain (k,t)-center-pp objective (Eq. 2):
// max over surviving nodes of the expected assignment distance.
func EvalCenterPP(g *Ground, nodes []Node, centers []metric.Point, t float64) float64 {
	if len(centers) == 0 {
		return math.Inf(1)
	}
	rest := dropTop(assignCosts(g, nodes, centers, false), t)
	if len(rest) == 0 {
		return 0
	}
	return rest[0]
}

// EvalCenterG estimates the uncertain (k,t)-center-g objective (Eq. 3),
// E[max over surviving nodes of d(sigma(j), pi(j))], by Monte Carlo over
// `samples` joint realizations with a fixed seed. The ignored set O and the
// assignment pi are chosen as in the per-point objective (the exact optimum
// over O is NP-hard and the expectation itself has exponential support —
// the paper also reasons through rho_tau bounds rather than evaluating
// Eq. 3).
func EvalCenterG(g *Ground, nodes []Node, centers []metric.Point, t float64, samples int, seed int64) float64 {
	if len(centers) == 0 || samples <= 0 {
		return math.Inf(1)
	}
	// Pick O = the floor(t) nodes with the largest expected assignment
	// cost, pi = expected-nearest center.
	costs := assignCosts(g, nodes, centers, false)
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	ignored := make(map[int]bool, int(t))
	for i := 0; i < int(t) && i < len(order); i++ {
		ignored[order[i]] = true
	}
	pi := make([]metric.Point, len(nodes))
	for j, nd := range nodes {
		best, bd := -1, math.Inf(1)
		for c, cp := range centers {
			if v := ExpectedDist(g, nd, cp); v < bd {
				bd, best = v, c
			}
		}
		pi[j] = centers[best]
	}
	r := rand.New(rand.NewSource(seed))
	var sum float64
	for it := 0; it < samples; it++ {
		worst := 0.0
		for j, nd := range nodes {
			if ignored[j] {
				continue
			}
			u := nd.Realize(r.Float64())
			if d := g.DistTo(u, pi[j]); d > worst {
				worst = d
			}
		}
		sum += worst
	}
	return sum / float64(samples)
}
