package core

import (
	"context"
	"fmt"
	"testing"

	"dpc/internal/dataio"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Ablation: the geometric grid base trades site work (number of local
// solves, ~log_base t of them) against hull fidelity.
func BenchmarkAblationHullBase(b *testing.B) {
	in := gen.Mixture(gen.MixtureSpec{N: 1200, K: 4, OutlierFrac: 0.08, Seed: 21})
	parts := gen.Partition(in, 6, gen.Uniform, 22)
	sites := gen.SitePoints(in, parts)
	for _, base := range []float64{1.25, 1.5, 2, 4} {
		b.Run(fmt.Sprintf("base=%.2f", base), func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := Run(sites, Config{K: 4, T: 90, Objective: Median, HullBase: base})
				if err != nil {
					b.Fatal(err)
				}
				cost = Evaluate(in.Pts, res.Centers, res.OutlierBudget, Median)
			}
			b.ReportMetric(cost, "partial-cost")
		})
	}
}

// Ablation: coordinator engine choice (JV primal-dual vs local search).
func BenchmarkAblationEngine(b *testing.B) {
	in := gen.Mixture(gen.MixtureSpec{N: 700, K: 3, OutlierFrac: 0.05, Seed: 23})
	parts := gen.Partition(in, 4, gen.Uniform, 24)
	sites := gen.SitePoints(in, parts)
	for _, algo := range []engine.Algo{engine.LocalSearch, engine.JV} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := Run(sites, Config{K: 3, T: 30, Objective: Median, LocalOpts: kmedian.Options{Options: engine.Options{Algo: algo}}})
				if err != nil {
					b.Fatal(err)
				}
				cost = Evaluate(in.Pts, res.Centers, res.OutlierBudget, Median)
			}
			b.ReportMetric(cost, "partial-cost")
		})
	}
}

// Ablation: rho = 2 (Algorithm 1) vs rho = 1+delta (Theorem 3.8 path).
func BenchmarkAblationRho(b *testing.B) {
	in := gen.Mixture(gen.MixtureSpec{N: 1000, K: 4, OutlierFrac: 0.1, Seed: 25})
	parts := gen.Partition(in, 5, gen.Uniform, 26)
	sites := gen.SitePoints(in, parts)
	for _, rho := range []float64{1.25, 2, 3} {
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := Run(sites, Config{K: 4, T: 80, Objective: Median, Rho: rho})
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Report.UpBytes
			}
			b.ReportMetric(float64(bytes), "up-bytes")
		})
	}
}

// BenchmarkMemoCrossover is the measurement behind metric.Memoizes' dimension
// rule: the repo benchmark's median-shards job (8 sites of 250 points, k = 5,
// t = 20) at each dimension, with every site on the raw points (raw/), on a
// fresh per-job DistCache (memo/), and on one prefilled DistCache per site
// that every job reuses (warm/), the pooled shard cache a repeated dpc-server
// job finds. Both cache arms go through the explicit-oracle entry point,
// which no policy overrides. The crossover is the dimension where the cache
// arms stop losing to raw/.
func BenchmarkMemoCrossover(b *testing.B) {
	cfg := Config{K: 5, T: 20, Objective: Median}
	for _, dim := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
		in := gen.Mixture(gen.MixtureSpec{N: 2000, K: 5, Dim: dim, OutlierFrac: 0.01, Seed: 31})
		sites := dataio.SplitRoundRobin(in.Pts, 8)
		for _, mode := range []string{"raw", "memo", "warm"} {
			var warm []*metric.DistCache
			if mode == "warm" {
				for _, pts := range sites {
					dc := metric.NewDistCache(metric.NewPoints(pts))
					dc.Prefill(1)
					warm = append(warm, dc)
				}
			}
			b.Run(fmt.Sprintf("dim=%d/%s", dim, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					handlers := make([]transport.Handler, len(sites))
					for s, pts := range sites {
						var o metric.Oracle = metric.NewPoints(pts)
						switch mode {
						case "memo":
							o = metric.NewDistCache(metric.NewPoints(pts))
						case "warm":
							o = warm[s]
						}
						h, err := NewSiteHandlerOracle(cfg, s, pts, o)
						if err != nil {
							b.Fatal(err)
						}
						handlers[s] = h
					}
					tr, err := tree.NewLocal(context.Background(), transport.KindLoopback, handlers, true, tree.Spec{})
					if err != nil {
						b.Fatal(err)
					}
					_, err = RunOverCtx(context.Background(), tr, cfg)
					tr.Close()
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
