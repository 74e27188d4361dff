package kcenter_test

import (
	"fmt"

	"dpc/internal/kcenter"
	"dpc/internal/metric"
)

// ExamplePartial is the worst-case objective on a road graph: a path of
// three towns one unit apart and a settlement 50 units beyond the last.
// With one center and one point written off, the settlement goes and every
// town is within 2 of the center; without the write-off it sets the radius.
func ExamplePartial() {
	g, err := metric.GraphMetric(4, []metric.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 50}})
	if err != nil {
		panic(err)
	}
	sol := kcenter.Partial(g, nil, 1, 1)
	fmt.Println("centers:", len(sol.Centers))
	fmt.Println("towns within 2:", sol.Radius <= 2)
	fmt.Println("t = 0 radius at least 49:", kcenter.Partial(g, nil, 1, 0).Radius >= 49)
	// Output:
	// centers: 1
	// towns within 2: true
	// t = 0 radius at least 49: true
}
