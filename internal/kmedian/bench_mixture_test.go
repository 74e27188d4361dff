package kmedian_test

import (
	"testing"

	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// BenchmarkLocalSearchMeansMixture2100x16 is what a site of the repo
// benchmark's means-hidim workload solves: one round-robin half of a
// 5-cluster, dim-16, 4200-point mixture with 1% far outliers, 2k = 10
// centers under squared costs on the raw oracle. The clusters are where the
// potential scan's nearest-center bound bites; the single Gaussian blob of
// BenchmarkLocalSearchMeans2100x16 is the case where it almost never does.
// (An external test package: gen imports uncertain, which imports kmedian.)
func BenchmarkLocalSearchMeansMixture2100x16(b *testing.B) {
	in := gen.Mixture(gen.MixtureSpec{N: 4200, K: 5, Dim: 16, OutlierFrac: 0.01, Seed: 1})
	shard := dataio.SplitRoundRobin(in.Pts, 2)[0]
	costs := metric.Squared{C: metric.SelfCosts{S: metric.NewPoints(shard)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmedian.LocalSearch(costs, nil, 10, 42, kmedian.Options{Seed: int64(i)})
	}
}
