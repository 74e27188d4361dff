package core

import (
	"fmt"
	"testing"

	"dpc/internal/gen"
	"dpc/internal/kmedian"
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
	for _, eng := range []kmedian.Engine{kmedian.EngineLocalSearch, kmedian.EngineJV} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := Run(sites, Config{K: 3, T: 30, Objective: Median, Engine: eng})
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
