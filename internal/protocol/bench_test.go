package protocol_test

import (
	"testing"

	"dpc/internal/dataio"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/geom"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// BenchmarkCurveMeansMixture is Lines 1-4 of Algorithm 1 as a site of the
// repo benchmark's means-hidim workload runs them: the 7-budget grid
// {0, 2, 4, 8, 16, 32, 42} of (2k, q)-means solves over one round-robin half
// of a 5-cluster, dim-16, 4200-point mixture, each warm-started from the
// last and all in the solver's one scratch — B/op is the grid's, not seven
// solves'. (An external test package: gen imports uncertain, which imports
// protocol.)
func BenchmarkCurveMeansMixture(b *testing.B) {
	in := gen.Mixture(gen.MixtureSpec{N: 4200, K: 5, Dim: 16, OutlierFrac: 0.01, Seed: 1})
	shard := dataio.SplitRoundRobin(in.Pts, 2)[0]
	costs := metric.Squared{C: metric.SelfCosts{S: metric.NewPoints(shard)}}
	grid := geom.Grid(42, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &protocol.BudgetSolver{Costs: costs, K: 10, Opts: kmedian.Options{Seed: int64(i), Options: engine.Options{Algo: engine.LocalSearch}}}
		s.Curve(grid)
	}
}
