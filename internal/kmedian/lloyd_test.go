package kmedian

import (
	"math"
	"math/rand"
	"testing"

	"dpc/internal/metric"
)

func TestLloydPolishImprovesDiscreteSolution(t *testing.T) {
	// Two clusters; a discrete solution must pick input points as centers,
	// Lloyd moves them to the centroids and cannot be worse.
	r := rand.New(rand.NewSource(4))
	var pts []metric.Point
	for i := 0; i < 40; i++ {
		cx := 0.0
		if i%2 == 1 {
			cx = 50
		}
		pts = append(pts, metric.Point{cx + r.NormFloat64(), r.NormFloat64()})
	}
	sp := metric.NewPoints(pts)
	sq := metric.Squared{C: sp}
	disc := LocalSearch(sq, nil, 2, 0, Options{Seed: 1, Restarts: 2})
	discCenters := make([]metric.Point, len(disc.Centers))
	for i, f := range disc.Centers {
		discCenters[i] = pts[f]
	}
	polished, cost := LloydPolish(pts, nil, discCenters, 0, 32)
	if cost > disc.Cost+1e-9 {
		t.Fatalf("Lloyd worsened the cost: %g vs %g", cost, disc.Cost)
	}
	if len(polished) != 2 {
		t.Fatalf("polished centers = %d", len(polished))
	}
	// The polished cost is the means evaluation of the polished centers.
	if got := Eval(metric.Cross{Pts: pts, Centers: polished, Squared: true}, nil, []int{0, 1}, 0).Cost; math.Abs(got-cost) > 1e-9*(1+cost) {
		t.Fatalf("eval mismatch: %g vs %g", got, cost)
	}
}

func TestLloydPolishExcludesOutliers(t *testing.T) {
	pts := []metric.Point{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, // cluster
		{1000, 1000}, // outlier
	}
	centers, cost := LloydPolish(pts, nil, []metric.Point{{0.2, 0.2}}, 1, 32)
	if cost > 2.1 {
		t.Fatalf("cost = %g; outlier not excluded", cost)
	}
	// Center converges to the cluster centroid (0.5, 0.5).
	if metric.L2(centers[0], metric.Point{0.5, 0.5}) > 1e-6 {
		t.Fatalf("center = %v, want (0.5,0.5)", centers[0])
	}
}

func TestLloydPolishWeighted(t *testing.T) {
	pts := []metric.Point{{0}, {10}}
	w := []float64{3, 1}
	centers, _ := LloydPolish(pts, w, []metric.Point{{5}}, 0, 32)
	// Weighted centroid: (3*0 + 1*10)/4 = 2.5.
	if math.Abs(centers[0][0]-2.5) > 1e-9 {
		t.Fatalf("weighted centroid = %v, want 2.5", centers[0])
	}
}

func TestLloydPolishDegenerate(t *testing.T) {
	if c, cost := LloydPolish(nil, nil, []metric.Point{{0}}, 0, 5); cost != 0 || len(c) != 1 {
		t.Fatal("empty points should be free")
	}
	if c, _ := LloydPolish([]metric.Point{{1}}, nil, nil, 0, 5); len(c) != 0 {
		t.Fatal("no centers should stay empty")
	}
	// Empty cluster keeps its position.
	centers, _ := LloydPolish([]metric.Point{{0}, {1}}, nil, []metric.Point{{0.5}, {999}}, 0, 5)
	if centers[1][0] != 999 {
		t.Fatalf("empty cluster moved: %v", centers[1])
	}
}
