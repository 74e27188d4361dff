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

// coordinatorInstance is the Theorem 3.1 instance a median-shards job's
// coordinator solves: a 2000-point, 5-cluster, dim-2 mixture with 1% far
// outliers, split round-robin over 8 sites; each site's (2k = 10, 5)-median
// local search ships its centers, weighted by the inlier counts they serve,
// and its 5 outliers at weight 1 — 120 weighted clients in all.
func coordinatorInstance() ([]metric.Point, []float64) {
	in := gen.Mixture(gen.MixtureSpec{N: 2000, K: 5, Dim: 2, OutlierFrac: 0.01, Seed: 501})
	var pts []metric.Point
	var wts []float64
	for _, shard := range dataio.SplitRoundRobin(in.Pts, 8) {
		sol := kmedian.LocalSearch(metric.NewPoints(shard), nil, 10, 5, kmedian.Options{Seed: 1})
		for i, w := range sol.CenterWeights() {
			pts, wts = append(pts, shard[sol.Centers[i]]), append(wts, w)
		}
		for _, j := range sol.Outliers() {
			pts, wts = append(pts, shard[j]), append(wts, 1)
		}
	}
	return pts, wts
}

// BenchmarkJVCoordinator is the coordinator's JV solve of a median-shards
// job (coordinatorInstance): k = 5, t = 20, eps = 1, on the raw oracle the
// coordinator builds at dimension 2.
func BenchmarkJVCoordinator(b *testing.B) {
	pts, wts := coordinatorInstance()
	costs := metric.SelfCosts{S: metric.NewPoints(pts)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmedian.JV(costs, wts, 5, 20, 1, kmedian.Options{Seed: 1})
	}
	b.ReportMetric(float64(len(pts)), "clients")
}
