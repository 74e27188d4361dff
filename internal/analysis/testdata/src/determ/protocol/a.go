// The round skeleton builds hulls and replays budgets that must come out
// bit-identical on every backend, so internal/protocol sits in the solver
// scope: an order-sensitive construct in a package of that name is flagged
// like one in kmedian.
package protocol

import "time"

type vertex struct {
	q int
	c float64
}

// Samples kept in a map and hulled in iteration order would ship a
// different hull from run to run.
func hullFromMap(samples map[int]float64) []vertex {
	var hull []vertex
	for q, c := range samples { // want "range over map samples appends to hull"
		hull = append(hull, vertex{q, c})
	}
	return hull
}

// The skeleton's own shape: the grid is a slice, the samples follow it.
func hullFromGrid(grid []int, costs []float64) []vertex {
	hull := make([]vertex, len(grid))
	for i, q := range grid {
		hull[i] = vertex{q, costs[i]}
	}
	return hull
}

func roundDeadline() time.Time {
	return time.Now() // want "time.Now in a solver package"
}
