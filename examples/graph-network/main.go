// Graph network: partial clustering over a *graph metric* — the paper's
// general model ("clustering over a graph with n nodes and an oracle
// distance function"). We place k depots on a road network so that every
// town is close to a depot along roads, while writing off up to t remote
// settlements that would otherwise dominate the objective.
//
// Run with:
//
//	go run ./examples/graph-network
package main

import (
	"fmt"
	"log"

	"dpc"
)

func main() {
	// A 6x6 grid of towns (unit roads) plus three remote settlements
	// connected by long mountain roads.
	const side = 6
	n := side*side + 3
	var edges []dpc.Edge
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, dpc.Edge{U: id(r, c), V: id(r, c+1), W: 1})
			}
			if r+1 < side {
				edges = append(edges, dpc.Edge{U: id(r, c), V: id(r+1, c), W: 1})
			}
		}
	}
	remote := []int{side * side, side*side + 1, side*side + 2}
	edges = append(edges,
		dpc.Edge{U: id(0, 0), V: remote[0], W: 40},
		dpc.Edge{U: id(side-1, side-1), V: remote[1], W: 55},
		dpc.Edge{U: id(0, side-1), V: remote[2], W: 35},
	)

	g, err := dpc.GraphMetric(n, edges)
	if err != nil {
		log.Fatal(err)
	}

	// k=4 depots, up to t=3 settlements written off.
	sol := dpc.SolvePartialMedian(g, nil, 4, 3, dpc.SolverOptions{Seed: 1})
	fmt.Println("(k=4, t=3)-median over the road network")
	fmt.Printf("  depots at nodes:      %v\n", sol.Centers)
	fmt.Printf("  total road distance:  %.1f\n", sol.Cost)
	fmt.Printf("  written-off nodes:    %v (the remote settlements are %v)\n",
		sol.Outliers(), remote)

	// Without the outlier budget the mountain roads dominate.
	sol0 := dpc.SolvePartialMedian(g, nil, 4, 0, dpc.SolverOptions{Seed: 1})
	fmt.Printf("  with t=0 the cost is  %.1f (%.1fx worse)\n", sol0.Cost, sol0.Cost/sol.Cost)

	// Same network, worst-case (center) objective.
	cen := dpc.SolvePartialCenter(g, nil, 4, 3)
	fmt.Printf("(k=4, t=3)-center radius: %.1f\n", cen.Radius)

	// Feature-space clustering via the angular metric (the paper's
	// "documents in a feature space" setting): three topic directions.
	docs := &dpc.AngularSpace{Pts: []dpc.Point{
		{10, 1, 0}, {8, 2, 0}, {12, 0, 1}, // topic A
		{0, 9, 1}, {1, 11, 0}, {0, 7, 2}, // topic B
		{1, 0, 8}, {0, 2, 10}, // topic C
		{5, 5, 5}, // an off-topic document
	}}
	dsol := dpc.SolvePartialMedian(docs, nil, 3, 1, dpc.SolverOptions{Seed: 2})
	fmt.Println("(k=3, t=1)-median over documents in angular feature space")
	fmt.Printf("  topic exemplars: %v, off-topic doc dropped: %v\n", dsol.Centers, dsol.Outliers())
}
