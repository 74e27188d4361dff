package dpc_test

import (
	"fmt"

	"dpc"
)

// ExampleRun clusters a tiny two-cluster dataset with one far outlier
// spread over two sites.
func ExampleRun() {
	sites := [][]dpc.Point{
		{{0, 0}, {1, 0}, {0, 1}, {50, 50}},
		{{51, 50}, {50, 51}, {1, 1}, {9999, 9999}},
	}
	res, err := dpc.Run(sites, dpc.Config{K: 2, T: 1, Objective: dpc.Median})
	if err != nil {
		panic(err)
	}
	cost := dpc.Evaluate(dpc.FlattenSites(sites), res.Centers, res.OutlierBudget, dpc.Median)
	fmt.Println("rounds:", res.Report.Rounds)
	fmt.Println("centers:", len(res.Centers))
	fmt.Println("outlier excluded:", cost < 100)
	// Output:
	// rounds: 2
	// centers: 2
	// outlier excluded: true
}

// ExampleSolvePartialMedian clusters nodes of a road network, writing off
// the unreachable settlement.
func ExampleSolvePartialMedian() {
	g, err := dpc.GraphMetric(4, []dpc.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 100},
	})
	if err != nil {
		panic(err)
	}
	sol := dpc.SolvePartialMedian(g, nil, 1, 1, dpc.SolverOptions{Seed: 1})
	fmt.Println("outliers:", sol.Outliers())
	// Output:
	// outliers: [3]
}

// ExampleNewStream summarizes a long stream in bounded memory.
func ExampleNewStream() {
	sk, err := dpc.NewStream(dpc.StreamConfig{K: 2, T: 4, Chunk: 64})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10000; i++ {
		x := float64(i % 2 * 100) // two clusters at 0 and 100
		sk.Add(dpc.Point{x, float64(i % 7)})
	}
	res := sk.Finish()
	fmt.Println("summary bounded:", sk.Size() <= 64)
	fmt.Println("centers:", len(res.Centers))
	// Output:
	// summary bounded: true
	// centers: 2
}
