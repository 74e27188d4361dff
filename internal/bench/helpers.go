package bench

import (
	"math"
	"math/rand"

	"dpc/internal/geom"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randomCurve builds a random decreasing convex-ish cost curve on [0, t].
func randomCurve(r *rand.Rand, t int) geom.ConvexFn {
	grid := geom.Grid(t, 2)
	samples := make([]geom.Vertex, 0, len(grid))
	c := 100 + r.Float64()*900
	for _, q := range grid {
		samples = append(samples, geom.Vertex{Q: q, C: c})
		c *= r.Float64()
	}
	f, err := geom.NewConvexFn(samples)
	if err != nil {
		panic(err)
	}
	return f
}

// dpOptimum solves min sum f_i(t_i) s.t. sum t_i <= R exactly.
func dpOptimum(fns []geom.ConvexFn, R int) float64 {
	cur := make([]float64, R+1)
	next := make([]float64, R+1)
	for i := len(fns) - 1; i >= 0; i-- {
		f := fns[i]
		for r := 0; r <= R; r++ {
			best := math.Inf(1)
			maxQ := f.T()
			if maxQ > r {
				maxQ = r
			}
			for q := 0; q <= maxQ; q++ {
				if v := f.Eval(q) + cur[r-q]; v < best {
					best = v
				}
			}
			next[r] = best
		}
		cur, next = next, cur
	}
	return cur[R]
}
