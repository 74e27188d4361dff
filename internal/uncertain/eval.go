package uncertain

import (
	"math"
	"math/rand"

	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// NodeCosts is the Costs of uncertain nodes (the clients) against arbitrary
// centers (the facilities): ExpectedDist, or ExpectedSqDist when Squared.
type NodeCosts struct {
	G       *Ground
	Nodes   []Node
	Centers []metric.Point
	Squared bool
}

// Clients implements metric.Costs.
func (nc NodeCosts) Clients() int { return len(nc.Nodes) }

// Facilities implements metric.Costs.
func (nc NodeCosts) Facilities() int { return len(nc.Centers) }

// Cost implements metric.Costs.
func (nc NodeCosts) Cost(j, f int) float64 {
	if nc.Squared {
		return ExpectedSqDist(nc.G, nc.Nodes[j], nc.Centers[f])
	}
	return ExpectedDist(nc.G, nc.Nodes[j], nc.Centers[f])
}

// evalNodes is kmedian.Eval of the centers on the nodes at floor(t): each
// node goes to its expected-nearest center (the optimal assigned
// clustering pi of the per-point objectives), and the floor(t) nodes with
// the largest expected cost are ignored.
func evalNodes(g *Ground, nodes []Node, centers []metric.Point, t float64, squared bool) (NodeCosts, kmedian.Solution) {
	nc := NodeCosts{G: g, Nodes: nodes, Centers: centers, Squared: squared}
	all := make([]int, len(centers))
	for i := range all {
		all[i] = i
	}
	return nc, kmedian.Eval(nc, nil, all, math.Floor(t))
}

// EvalMedian computes the true uncertain (k,t)-median objective (Eq. 1) of
// the centers: sum over surviving nodes of E[d(sigma(j), pi(j))] with the
// optimal assignment and the t most expensive nodes ignored.
func EvalMedian(g *Ground, nodes []Node, centers []metric.Point, t float64) float64 {
	_, sol := evalNodes(g, nodes, centers, t, false)
	return sol.Cost
}

// EvalMeans is EvalMedian under squared distances.
func EvalMeans(g *Ground, nodes []Node, centers []metric.Point, t float64) float64 {
	_, sol := evalNodes(g, nodes, centers, t, true)
	return sol.Cost
}

// EvalCenterPP computes the uncertain (k,t)-center-pp objective (Eq. 2):
// max over surviving nodes of the expected assignment distance.
func EvalCenterPP(g *Ground, nodes []Node, centers []metric.Point, t float64) float64 {
	if len(centers) == 0 {
		return math.Inf(1)
	}
	nc, sol := evalNodes(g, nodes, centers, t, false)
	for _, j := range sol.Order {
		if sol.DroppedWeight[j] == 0 {
			if f := sol.Assign[j]; f >= 0 {
				return nc.Cost(j, f)
			}
			return math.Inf(1) // no finite cost to any center
		}
	}
	return 0
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
	// O = the floor(t) nodes with the largest expected assignment cost,
	// pi = expected-nearest center.
	_, sol := evalNodes(g, nodes, centers, t, false)
	r := rand.New(rand.NewSource(seed))
	var sum float64
	for it := 0; it < samples; it++ {
		worst := 0.0
		for j, nd := range nodes {
			if sol.DroppedWeight[j] > 0 {
				continue
			}
			u := nd.Realize(r.Float64())
			if d := g.DistTo(u, centers[sol.Assign[j]]); d > worst {
				worst = d
			}
		}
		sum += worst
	}
	return sum / float64(samples)
}
