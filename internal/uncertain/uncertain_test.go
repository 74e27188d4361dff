package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/exact"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// twoClusterGround builds a small ground set: cluster A around 0, cluster B
// around 100, one far point.
func twoClusterGround() *Ground {
	return &Ground{Pts: []metric.Point{
		{0}, {1}, {2}, // A: indices 0..2
		{100}, {101}, {102}, // B: 3..5
		{10000}, // far: 6
	}}
}

func TestNodeValidate(t *testing.T) {
	g := twoClusterGround()
	good := Node{Support: []int{0, 1}, Prob: []float64{0.5, 0.5}}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := []Node{
		{},
		{Support: []int{0}, Prob: []float64{0.5, 0.5}},
		{Support: []int{0, 1}, Prob: []float64{0.5, 0.6}},
		{Support: []int{0, 99}, Prob: []float64{0.5, 0.5}},
		{Support: []int{0, 1}, Prob: []float64{1.0, 0.0}},
		{Support: []int{0, 1}, Prob: []float64{math.NaN(), 0.5}},
		{Support: []int{0, 1}, Prob: []float64{math.Inf(1), 0.5}},
	}
	for i, nd := range bad {
		if err := nd.Validate(g); err == nil {
			t.Errorf("bad node %d accepted", i)
		}
	}
}

func TestExpectedDistances(t *testing.T) {
	g := twoClusterGround()
	nd := Node{Support: []int{0, 2}, Prob: []float64{0.5, 0.5}} // at 0 and 2
	p := metric.Point{1}
	if got := ExpectedDist(g, nd, p); math.Abs(got-1) > 1e-12 {
		t.Fatalf("E d = %g, want 1", got)
	}
	if got := ExpectedSqDist(g, nd, p); math.Abs(got-1) > 1e-12 {
		t.Fatalf("E d^2 = %g, want 1", got)
	}
	// Truncation at tau=0.5: each leg contributes (1-0.5)/2.
	if got := TruncExpectedDist(g, nd, p, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rho = %g, want 0.5", got)
	}
	// Large tau truncates everything.
	if got := TruncExpectedDist(g, nd, p, 50); got != 0 {
		t.Fatalf("rho large tau = %g, want 0", got)
	}
}

func TestOneMedianAndMean(t *testing.T) {
	g := twoClusterGround()
	// Node concentrated near A: 1-median should be index 1 (middle of A).
	nd := Node{Support: []int{0, 1, 2}, Prob: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}}
	y, ell := OneMedian(g, nd, FullGround)
	if y != 1 {
		t.Fatalf("1-median = %d, want 1", y)
	}
	if math.Abs(ell-2.0/3) > 1e-12 {
		t.Fatalf("ell = %g, want 2/3", ell)
	}
	ym, _ := OneMean(g, nd, FullGround)
	if ym != 1 {
		t.Fatalf("1-mean = %d, want 1", ym)
	}
	// OwnSupport equals FullGround here (the argmin is in the support).
	y2, ell2 := OneMedian(g, nd, OwnSupport)
	if y2 != y || ell2 != ell {
		t.Fatalf("own-support differs: %d/%g vs %d/%g", y2, ell2, y, ell)
	}
}

func TestRealize(t *testing.T) {
	nd := Node{Support: []int{7, 8}, Prob: []float64{0.25, 0.75}}
	if nd.Realize(0.1) != 7 || nd.Realize(0.9) != 8 || nd.Realize(0.999999) != 8 {
		t.Fatal("realize thresholds wrong")
	}
	counts := map[int]int{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		counts[nd.Realize(r.Float64())]++
	}
	if frac := float64(counts[8]) / 10000; math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("realize frequency %g, want ~0.75", frac)
	}
}

func TestCollapsedIsMetricAndCosts(t *testing.T) {
	g := twoClusterGround()
	nodes := []Node{
		{Support: []int{0, 1}, Prob: []float64{0.5, 0.5}},
		{Support: []int{3, 4}, Prob: []float64{0.5, 0.5}},
		{Support: []int{2, 5}, Prob: []float64{0.5, 0.5}},
	}
	col := Collapse(g, nodes, false, FullGround)
	if col.Len() != 3 || col.Clients() != 3 || col.Facilities() != 3 || col.N() != 3 {
		t.Fatal("sizes wrong")
	}
	// The demand-demand distance d_G is a metric (Definition 5.2).
	if err := metric.CheckMetric(col); err != nil {
		t.Fatal(err)
	}
	// Cost(i,i) = ell_i: connecting p_i to its own 1-median costs the
	// collapse cost (the tentacle edge of Figure 1).
	for i := range nodes {
		if math.Abs(col.Cost(i, i)-col.Ell[i]) > 1e-12 {
			t.Fatalf("Cost(%d,%d) = %g, want ell=%g", i, i, col.Cost(i, i), col.Ell[i])
		}
	}
	// Dist decomposes as ell_i + d(y_i,y_j) + ell_j.
	want := col.Ell[0] + metric.L2(col.Y[0], col.Y[1]) + col.Ell[1]
	if math.Abs(col.Dist(0, 1)-want) > 1e-12 {
		t.Fatalf("Dist(0,1) = %g, want %g", col.Dist(0, 1), want)
	}
}

func TestCollapsedSquaredVariant(t *testing.T) {
	g := twoClusterGround()
	nodes := []Node{
		{Support: []int{0, 2}, Prob: []float64{0.5, 0.5}},
		{Support: []int{3, 5}, Prob: []float64{0.5, 0.5}},
	}
	col := Collapse(g, nodes, true, FullGround)
	// Squared cost uses the relaxed form 2 ell' + 2 d^2.
	want := 2*col.Ell[0] + 2*metric.SqL2(col.Y[0], col.Y[1])
	if math.Abs(col.Cost(0, 1)-want) > 1e-9 {
		t.Fatalf("squared cost = %g, want %g", col.Cost(0, 1), want)
	}
	if col.Dist(0, 0) != 0 {
		t.Fatal("self distance nonzero")
	}
}

// Lemma 5.3 / 5.4 sandwich: the optimal cost on the compressed graph is
// within constant factors of the optimal uncertain cost. We verify the
// concrete two-sided bound on small instances by brute force over centers
// restricted to the 1-medians.
func TestCompressionSandwich(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := &Ground{}
		var nodes []Node
		for j := 0; j < 7; j++ {
			m := 2 + r.Intn(2)
			nd := Node{}
			base := metric.Point{r.Float64() * 50, r.Float64() * 50}
			tot := 0.0
			for q := 0; q < m; q++ {
				p := metric.Point{base[0] + r.NormFloat64(), base[1] + r.NormFloat64()}
				nd.Support = append(nd.Support, len(g.Pts))
				g.Pts = append(g.Pts, p)
				w := 0.5 + r.Float64()
				nd.Prob = append(nd.Prob, w)
				tot += w
			}
			for q := range nd.Prob {
				nd.Prob[q] /= tot
			}
			nodes = append(nodes, nd)
		}
		col := Collapse(g, nodes, false, FullGround)
		k, tt := 2, 1.0
		// Optimal over compressed graph (centers = 1-medians).
		optG := exact.Solve(col, nil, k, tt, exact.Sum).Cost
		// Optimal original cost with centers restricted to 1-medians.
		optA := exact.Solve(NodeCosts{G: g, Nodes: nodes, Centers: col.Y}, nil, k, tt, exact.Sum).Cost
		// Lemma 5.3: C_G <= 5 C_A; Lemma 5.4: C_A <= 2 C_G.
		if optG > 5*optA+1e-9 {
			t.Fatalf("trial %d: C_G=%g > 5*C_A=%g", trial, optG, 5*optA)
		}
		if optA > 2*optG+1e-9 {
			t.Fatalf("trial %d: C_A=%g > 2*C_G=%g", trial, optA, 2*optG)
		}
	}
}

func TestTruncCostsOracle(t *testing.T) {
	g := twoClusterGround()
	nodes := []Node{{Support: []int{0, 2}, Prob: []float64{0.5, 0.5}}}
	tc := &TruncCosts{G: g, Nodes: nodes, Fac: []int{1, 6}, Tau: 0.5}
	if tc.Clients() != 1 || tc.Facilities() != 2 {
		t.Fatal("sizes")
	}
	if got := tc.Cost(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("trunc cost = %g", got)
	}
	if tc.Cost(0, 1) <= 9000 {
		t.Fatal("far facility should cost a lot")
	}
}

func TestEvalHelpers(t *testing.T) {
	g := twoClusterGround()
	nodes := []Node{
		{Support: []int{0}, Prob: []float64{1}},
		{Support: []int{3}, Prob: []float64{1}},
		{Support: []int{6}, Prob: []float64{1}}, // far node
	}
	centers := []metric.Point{{0}, {100}}
	if got := EvalMedian(g, nodes, centers, 0); math.Abs(got-(0+0+9900)) > 1e-9 {
		t.Fatalf("median eval = %g", got)
	}
	if got := EvalMedian(g, nodes, centers, 1); got != 0 {
		t.Fatalf("median eval t=1 = %g", got)
	}
	if got := EvalCenterPP(g, nodes, centers, 1); got != 0 {
		t.Fatalf("center-pp eval = %g", got)
	}
	if got := EvalMeans(g, nodes, centers, 1); got != 0 {
		t.Fatalf("means eval = %g", got)
	}
	if got := EvalMedian(g, nodes, nil, 0); !math.IsInf(got, 1) {
		t.Fatal("no centers should be inf")
	}
	if got := EvalMedian(g, nodes, nil, 3); got != 0 {
		t.Fatal("no centers, all dropped should be 0")
	}
	// Monte-Carlo center-g: deterministic nodes make it exact.
	if got := EvalCenterG(g, nodes, centers, 1, 50, 1); math.Abs(got) > 1e-9 {
		t.Fatalf("center-g eval = %g, want 0", got)
	}
	if got := EvalCenterG(g, nodes, centers, 0, 50, 1); math.Abs(got-9900) > 1e-9 {
		t.Fatalf("center-g eval t=0 = %g, want 9900", got)
	}
}

// TestOraclesDeclareNoTrianglePower is this package's rows of the capability
// table (metric.TestTrianglePowerDeclared holds the rest): none of the
// uncertain cost oracles is a metric over one shared index set — Collapsed
// costs are asymmetric (ell_i on the client side only), the truncated costs
// satisfy only Lemma 5.9's relaxed inequality — so kmedian's potential scan
// must bound nothing through them, whatever wraps them.
func TestOraclesDeclareNoTrianglePower(t *testing.T) {
	g := twoClusterGround()
	nodes := []Node{
		{Support: []int{0, 1}, Prob: []float64{0.5, 0.5}},
		{Support: []int{3, 4}, Prob: []float64{0.5, 0.5}},
	}
	col := Collapse(g, nodes, false, FullGround)
	cc := &coordTruncCosts{g: g, tau: 1}
	cc.add(g, new(protocol.Union), comm.WeightedPointsMsg{Pts: g.Pts[:1], W: []float64{1}}, comm.NodesMsg{Nodes: []comm.NodeWire{nodeWire(nodes[1])}})
	for name, c := range map[string]metric.Costs{
		"collapsed":           col,
		"collapsed-squared":   Collapse(g, nodes, true, FullGround),
		"selfcosts-collapsed": metric.SelfCosts{S: col},
		"cached-collapsed":    metric.SelfCosts{S: metric.NewDistCache(col)},
		"costcache-collapsed": metric.NewCostCache(col),
		"selfcosts-ground":    metric.SelfCosts{S: g},
		"trunc":               &TruncCosts{G: g, Nodes: nodes, Fac: []int{1, 6}, Tau: 0.5},
		"coord-trunc":         cc,
		"nodes-centers":       NodeCosts{G: g, Nodes: nodes, Centers: g.Pts[:2]},
	} {
		if p := metric.TrianglePower(c); p != 0 {
			t.Errorf("%s declares triangle power %d, want 0", name, p)
		}
	}
}
