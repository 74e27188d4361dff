package kmedian_test

import (
	"fmt"
	"slices"

	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// roads is a 6x6 grid of towns joined by unit roads plus three remote
// settlements on long mountain roads: the paper's general model, a graph
// with an oracle distance function.
func roads() (metric.Matrix, []int) {
	const side = 6
	id := func(r, c int) int { return r*side + c }
	var edges []metric.Edge
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, metric.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < side {
				edges = append(edges, metric.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
		}
	}
	remote := []int{side * side, side*side + 1, side*side + 2}
	edges = append(edges,
		metric.Edge{U: id(0, 0), V: remote[0], W: 40},
		metric.Edge{U: id(side-1, side-1), V: remote[1], W: 55},
		metric.Edge{U: id(0, side-1), V: remote[2], W: 35},
	)
	g, err := metric.GraphMetric(side*side+3, edges)
	if err != nil {
		panic(err)
	}
	return g, remote
}

// ExampleSolve places k = 4 depots on a road network so every town is close
// to one along roads, writing off up to t = 3 settlements that would
// otherwise dominate the objective. The same solver clusters documents in
// a feature space under the angular metric.
func ExampleSolve() {
	g, remote := roads()
	sol := kmedian.Solve(g, nil, 4, 3, kmedian.Options{Seed: 1})
	out := sol.Outliers()
	slices.Sort(out)
	fmt.Println("depots:", len(sol.Centers))
	fmt.Println("written off the remote settlements:", slices.Equal(out, remote))
	strict := kmedian.Solve(g, nil, 4, 0, kmedian.Options{Seed: 1})
	fmt.Println("t = 0 costs 1.5x more:", strict.Cost > 1.5*sol.Cost)

	docs := &metric.AngularSpace{Pts: []metric.Point{
		{10, 1, 0}, {8, 2, 0}, {12, 0, 1}, // topic A
		{0, 9, 1}, {1, 11, 0}, {0, 7, 2}, // topic B
		{1, 0, 8}, {0, 2, 10}, // topic C
		{5, 5, 5}, // off topic
	}}
	fmt.Println("off-topic document dropped:", kmedian.Solve(docs, nil, 3, 1, kmedian.Options{Seed: 2}).Outliers())
	// Output:
	// depots: 4
	// written off the remote settlements: true
	// t = 0 costs 1.5x more: true
	// off-topic document dropped: [8]
}
