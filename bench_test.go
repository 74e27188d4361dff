// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per Table 1/Table 2 row-group and per figure-style claim (experiments
// E1..E12, listed by `dpc-tables -list`). Each benchmark runs the
// corresponding experiment at reduced ("quick") size; the full-size tables
// come from `go run ./cmd/dpc-tables`. Custom metrics expose the quantity
// the paper bounds (bytes of communication, cost ratios) rather than just
// ns/op.
package dpc_test

import (
	"testing"

	"dpc"
	"dpc/internal/bench"
)

// runExperiment is the harness adapter: one experiment execution per
// benchmark iteration. Benchmarks always use the reduced ("quick")
// instance sizes and are skipped entirely under -short, so
// `go test -short -bench . ./...` stays fast; the full-size runs live in
// cmd/dpc-tables and the engine comparison in internal/bench's
// TestAllExperimentsQuick.
func runExperiment(b *testing.B, id string) {
	if testing.Short() {
		b.Skipf("%s: experiment benchmarks are skipped in -short mode", id)
	}
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.Run(bench.Options{Seed: int64(i) + 1, Quick: true})
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable1MedianO1 reproduces Table 1 row 1 — 2-round (k,t)-median,
// communication Otilde((sk+t)B) independent of n (E1).
func BenchmarkTable1MedianO1(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkTable2CommScaling reproduces the Table 1 vs Table 2 comparison —
// (sk+t)B against (sk+st)B as s and t sweep (E2).
func BenchmarkTable2CommScaling(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkTable1BicriteriaEps reproduces Table 1 rows 2-3 — the
// O(1+1/eps) cost shape for median and means with (1+eps)t ignored (E3).
func BenchmarkTable1BicriteriaEps(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkTable1Center reproduces Table 1 row 4 — Algorithm 2 for
// (k,t)-center against the 1-round baseline (E4).
func BenchmarkTable1Center(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkTable1Uncertain reproduces Table 1 row 5 — uncertain
// median via the compressed graph, communication independent of the
// distribution support size (E5).
func BenchmarkTable1Uncertain(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkTable1CenterG reproduces Table 1 row 6 — Algorithm 4 for
// uncertain (k,t)-center-g, comm Otilde(skB + tI + s logDelta) (E6).
func BenchmarkTable1CenterG(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkTheorem310Subquadratic reproduces Section 3.1 — the runtime
// exponents of the simulated centralized solvers (E7).
func BenchmarkTheorem310Subquadratic(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkTable2OneRound reproduces the Table 2 one-round rows —
// measured communication against the (sk+st)B closed form (E8).
func BenchmarkTable2OneRound(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkTable2NoShip reproduces the Theorem 3.8 rows — outlier counts
// only, communication flat in t (E9).
func BenchmarkTable2NoShip(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkFigure1Compression reproduces Figure 1 / Lemmas 5.3-5.4 — the
// compressed graph's two-sided cost preservation (E10).
func BenchmarkFigure1Compression(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkLemma33Allocation reproduces Lemma 3.3 — the rank-pivot budget
// allocation equals the DP optimum (E11).
func BenchmarkLemma33Allocation(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkTheorem36SiteSpeedup reproduces the Theorem 3.6 running-time
// claim — site wall time falls like ~1/s (E12).
func BenchmarkTheorem36SiteSpeedup(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkEndToEndMedian measures one full 2-round (k,t)-median run
// (communication reported as a custom metric). Shrunk under -short.
func BenchmarkEndToEndMedian(b *testing.B) {
	n := 1200
	if testing.Short() {
		n = 300
	}
	in := dpc.Mixture(dpc.MixtureSpec{N: n, K: 4, OutlierFrac: 0.05, Seed: 11})
	parts := dpc.Partition(in, 6, dpc.PartitionUniform, 12)
	sites := dpc.SitePoints(in, parts)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := dpc.Run(sites, dpc.Config{K: 4, T: 60, Objective: dpc.Median})
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Report.TotalBytes()
	}
	b.ReportMetric(float64(bytes), "wire-bytes")
}

// BenchmarkEndToEndCenter measures one full Algorithm 2 run. Shrunk under
// -short.
func BenchmarkEndToEndCenter(b *testing.B) {
	n := 1200
	if testing.Short() {
		n = 300
	}
	in := dpc.Mixture(dpc.MixtureSpec{N: n, K: 4, OutlierFrac: 0.05, Seed: 13})
	parts := dpc.Partition(in, 6, dpc.PartitionUniform, 14)
	sites := dpc.SitePoints(in, parts)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := dpc.Run(sites, dpc.Config{K: 4, T: 60, Objective: dpc.Center})
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Report.TotalBytes()
	}
	b.ReportMetric(float64(bytes), "wire-bytes")
}

// BenchmarkEndToEndUncertain measures one full Algorithm 3 run.
func BenchmarkEndToEndUncertain(b *testing.B) {
	in := dpc.UncertainMixture(dpc.UncertainSpec{N: 200, K: 3, Support: 4, OutlierFrac: 0.05, Seed: 15})
	parts := dpc.PartitionNodes(in, 4, dpc.PartitionUniform, 16)
	sites := dpc.SiteNodes(in, parts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpc.RunUncertain(in.Ground, sites, dpc.UncertainConfig{K: 3, T: 10}, dpc.UncertainMedian); err != nil {
			b.Fatal(err)
		}
	}
}
