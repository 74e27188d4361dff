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

// BenchmarkSwapEval is the exact swap evaluation of one descent round at
// the repo benchmark's two shard sizes: topE candidates against k = 10
// centers of a converged solution, 120 slots, early stop at the current
// cost as in descend.
func BenchmarkSwapEval(b *testing.B) {
	for _, nc := range []int{250, 2100} {
		b.Run(fmt.Sprintf("nc=%d", nc), func(b *testing.B) {
			const k = 10
			sp := benchPoints(nc)
			t := float64(nc / 50)
			cur := LocalSearch(sp, nil, k, t, Options{Seed: 1})
			d1, d2, a1 := make([]float64, nc), make([]float64, nc), make([]int, nc)
			for j := 0; j < nc; j++ {
				d1[j], d2[j] = math.Inf(1), math.Inf(1)
				for p, f := range cur.Centers {
					if x := sp.Cost(j, f); x < d1[j] {
						d1[j], d2[j], a1[j] = x, d1[j], p
					} else if x < d2[j] {
						d2[j] = x
					}
				}
			}
			cols := make([][]float64, topE)
			for si := range cols {
				cols[si] = make([]float64, nc)
				for j := range cols[si] {
					cols[si][j] = sp.Cost(j, si*nc/topE+1)
				}
			}
			ev := newSwapEval(nc, k)
			var sink float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.round(d1, a1, d2)
				for si, col := range cols {
					ev.candidate(si, col)
					for p := 0; p < k; p++ {
						sink += ev.cost(si, col, p, t, cur.Cost)
					}
				}
			}
			_ = sink
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
