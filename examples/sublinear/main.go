// Sublinear: the Section 3.1 trick — accelerate a *centralized*
// (k,t)-median solve by simulating the distributed algorithm in-process.
// The direct Theorem 3.1 engine is quadratic in n; one simulation level
// brings the exponent to ~4/3, two to ~8/7 (Theorem 3.10), trading a
// constant factor of quality.
//
// Run with:
//
//	go run ./examples/sublinear
package main

import (
	"fmt"
	"log"

	"dpc"
)

func main() {
	fmt.Println("centralized (k,t)-median: direct vs simulated (Theorem 3.10)")
	fmt.Printf("%8s  %10s  %10s  %10s  %8s  %8s\n",
		"n", "direct", "level-1", "level-2", "cost1/0", "cost2/0")
	for _, n := range []int{2000, 4000, 8000} {
		in := dpc.Mixture(dpc.MixtureSpec{
			N: n, K: 4, Dim: 2, OutlierFrac: 0.04, Seed: int64(n),
		})
		t := n / 50
		var sols [3]dpc.CentralSolution
		for lvl := 0; lvl <= 2; lvl++ {
			sol, err := dpc.Centralized(in.Pts, dpc.CentralConfig{
				K: 4, T: t, Levels: lvl,
				Opts: dpc.SolverOptions{MaxIters: 10, Seed: 1},
			})
			if err != nil {
				log.Fatal(err)
			}
			sols[lvl] = sol
		}
		fmt.Printf("%8d  %10v  %10v  %10v  %8.2f  %8.2f\n",
			n,
			sols[0].Elapsed.Round(1e6),
			sols[1].Elapsed.Round(1e6),
			sols[2].Elapsed.Round(1e6),
			sols[1].Cost/sols[0].Cost,
			sols[2].Cost/sols[0].Cost)
	}
	fmt.Println("\ndirect time grows ~n^2; the simulated levels grow with smaller")
	fmt.Println("exponents (4/3, 8/7) but carry 8^j-style constants, so level 1")
	fmt.Println("crosses over first and level 2 pays off only at larger n —")
	fmt.Println("exactly the trade Theorem 3.10 describes. Cost stays within a")
	fmt.Println("small constant of the direct solve.")
}
