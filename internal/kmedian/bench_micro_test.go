package kmedian

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dpc/internal/metric"
)

func benchPoints(n int) *metric.Points {
	r := rand.New(rand.NewSource(1))
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = metric.Point{r.Float64() * 100, r.Float64() * 100}
	}
	return metric.NewPoints(pts)
}

func BenchmarkLocalSearch(b *testing.B) {
	sp := benchPoints(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSearch(sp, nil, 8, 25, Options{Seed: int64(i)})
	}
}

// BenchmarkLocalSearchMeans2100x16 is one site solve of the repo
// benchmark's means-hidim workload: a 2100-point, 16-dim shard — above
// metric.MaxCachePoints, so the raw oracle — under squared costs, through
// the same Squared -> SelfCosts -> Points chain core builds.
func BenchmarkLocalSearchMeans2100x16(b *testing.B) {
	costs := metric.Squared{C: metric.SelfCosts{S: metric.NewPoints(parityPoints(1, 2100, 16))}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSearch(costs, nil, 10, 42, Options{Seed: int64(i)})
	}
}

// BenchmarkSwapEval is the swap evaluation of one descent round at the repo
// benchmark's two shard sizes: topE candidates against k = 10 centers of a
// converged solution, 120 slots, both phases of swapEval.swaps against the
// current cost as in descend. walked/round is how many of the 120 slots the
// bounds left for the exact sort-and-merge walk.
func BenchmarkSwapEval(b *testing.B) {
	for _, nc := range []int{250, 2100} {
		b.Run(fmt.Sprintf("nc=%d", nc), func(b *testing.B) {
			const k = 10
			sp := benchPoints(nc)
			t := float64(nc / 50)
			cur := LocalSearch(sp, nil, k, t, Options{Seed: 1})
			r := swapRound{d1: make([]float64, nc), d2: make([]float64, nc), a1: make([]int, nc)}
			for j := 0; j < nc; j++ {
				r.d1[j], r.d2[j] = math.Inf(1), math.Inf(1)
				for p, f := range cur.Centers {
					if x := sp.Cost(j, f); x < r.d1[j] {
						r.d1[j], r.d2[j], r.a1[j] = x, r.d1[j], p
					} else if x < r.d2[j] {
						r.d2[j] = x
					}
				}
			}
			ord := r.byD1Desc()
			cols := make([][]float64, topE)
			for si := range cols {
				cols[si] = make([]float64, nc)
				for j := range cols[si] {
					cols[si][j] = sp.Cost(j, si*nc/topE+1)
				}
			}
			ev := newSwapEval(nc, k)
			costs := make([]float64, topE*k)
			walked := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.round(r.d1, r.a1, r.d2, ord)
				walked += ev.swaps(1, cols, t, cur.Cost, costs)
			}
			b.ReportMetric(float64(walked)/float64(b.N), "walked/round")
		})
	}
}

func BenchmarkLocalSearchQuadraticEngine(b *testing.B) {
	// The faithful Theorem 3.1 engine: all facilities scanned per round.
	sp := benchPoints(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSearch(sp, nil, 8, 25, Options{Seed: int64(i), SampleFacilities: -1})
	}
}

func BenchmarkJV(b *testing.B) {
	sp := benchPoints(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JV(sp, nil, 5, 5, 0, Options{})
	}
}

func BenchmarkEvalSum(b *testing.B) {
	sp := benchPoints(2000)
	centers := []int{1, 100, 500, 900, 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalSum(sp, nil, centers, 50)
	}
}
