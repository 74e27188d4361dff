package dpc_test

import (
	"fmt"
	"runtime"
	"testing"

	"dpc"
)

// parityWorkload builds the shared instance of the parity matrix.
func parityWorkload(t *testing.T) [][]dpc.Point {
	t.Helper()
	in := dpc.Mixture(dpc.MixtureSpec{N: 900, K: 4, OutlierFrac: 0.06, Seed: 41})
	parts := dpc.Partition(in, 5, dpc.PartitionUniform, 42)
	return dpc.SitePoints(in, parts)
}

func requireSameRun(t *testing.T, label string, ref, got dpc.Result) {
	t.Helper()
	if len(got.Centers) != len(ref.Centers) {
		t.Fatalf("%s: %d centers, want %d", label, len(got.Centers), len(ref.Centers))
	}
	for i := range ref.Centers {
		if !got.Centers[i].Equal(ref.Centers[i]) {
			t.Fatalf("%s: center %d differs: %v vs %v", label, i, got.Centers[i], ref.Centers[i])
		}
	}
	if got.OutlierBudget != ref.OutlierBudget {
		t.Fatalf("%s: outlier budget %v, want %v", label, got.OutlierBudget, ref.OutlierBudget)
	}
	if got.CoordinatorCost != ref.CoordinatorCost {
		t.Fatalf("%s: coordinator cost %v, want %v", label, got.CoordinatorCost, ref.CoordinatorCost)
	}
	if got.Report.UpBytes != ref.Report.UpBytes || got.Report.DownBytes != ref.Report.DownBytes {
		t.Fatalf("%s: bytes (%d up, %d down), want (%d, %d)", label,
			got.Report.UpBytes, got.Report.DownBytes, ref.Report.UpBytes, ref.Report.DownBytes)
	}
}

// TestWorkersParity is the engine's hard invariant as a test matrix:
// identical centers, outlier budgets and wire bytes for Workers=1 and
// Workers=NumCPU (plus a fixed >1 width, so the parallel paths are
// exercised even on single-core machines), across every objective and both
// transports.
func TestWorkersParity(t *testing.T) {
	sites := parityWorkload(t)
	widths := []int{runtime.NumCPU(), 4}
	for _, obj := range []dpc.Objective{dpc.Median, dpc.Means, dpc.Center} {
		for _, tr := range []dpc.TransportKind{dpc.TransportLoopback, dpc.TransportTCP} {
			obj, tr := obj, tr
			t.Run(fmt.Sprintf("%v-%v", obj, tr), func(t *testing.T) {
				ref, err := dpc.Run(sites, dpc.Config{K: 4, T: 45, Objective: obj, Transport: tr, LocalOpts: dpc.SolverOptions{Options: dpc.EngineOptions{Workers: 1}}})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range widths {
					got, err := dpc.Run(sites, dpc.Config{K: 4, T: 45, Objective: obj, Transport: tr, LocalOpts: dpc.SolverOptions{Options: dpc.EngineOptions{Workers: workers}}})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRun(t, fmt.Sprintf("%v/%v workers=%d", obj, tr, workers), ref, got)
				}
			})
		}
	}
}

// TestWorkersParityVariants extends the matrix over the protocol variants
// (no-ship, 1-round) on the loopback transport.
func TestWorkersParityVariants(t *testing.T) {
	sites := parityWorkload(t)
	for _, v := range []dpc.Variant{dpc.TwoRoundNoOutliers, dpc.OneRound} {
		v := v
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			ref, err := dpc.Run(sites, dpc.Config{K: 4, T: 45, Variant: v, LocalOpts: dpc.SolverOptions{Options: dpc.EngineOptions{Workers: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := dpc.Run(sites, dpc.Config{K: 4, T: 45, Variant: v, LocalOpts: dpc.SolverOptions{Options: dpc.EngineOptions{Workers: 4}}})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, fmt.Sprint(v), ref, got)
		})
	}
}

// TestWorkersParityUncertain covers the Section 5 protocols: Algorithm 3
// per-site solves run over the cached collapsed oracle on the worker pool,
// and must not move a single byte or center.
func TestWorkersParityUncertain(t *testing.T) {
	in := dpc.UncertainMixture(dpc.UncertainSpec{N: 160, K: 3, Support: 4, OutlierFrac: 0.06, Seed: 51})
	parts := dpc.PartitionNodes(in, 4, dpc.PartitionUniform, 52)
	sites := dpc.SiteNodes(in, parts)
	for _, obj := range []dpc.UncertainObjective{dpc.UncertainMedian, dpc.UncertainMeans, dpc.UncertainCenterPP} {
		obj := obj
		t.Run(fmt.Sprint(obj), func(t *testing.T) {
			cfg := dpc.UncertainConfig{K: 3, T: 12}
			cfg.LocalOpts.Workers = 1
			ref, err := dpc.RunUncertain(in.Ground, sites, cfg, obj)
			if err != nil {
				t.Fatal(err)
			}
			cfg.LocalOpts.Workers = 4
			got, err := dpc.RunUncertain(in.Ground, sites, cfg, obj)
			if err != nil {
				t.Fatal(err)
			}
			if got.Report.UpBytes != ref.Report.UpBytes {
				t.Fatalf("%v: bytes %d != %d", obj, got.Report.UpBytes, ref.Report.UpBytes)
			}
			if len(got.Centers) != len(ref.Centers) {
				t.Fatalf("%v: center counts differ", obj)
			}
			for i := range ref.Centers {
				if !got.Centers[i].Equal(ref.Centers[i]) {
					t.Fatalf("%v: center %d differs", obj, i)
				}
			}
		})
	}
}

// TestEngineMatchesReferenceEndToEnd is the distributed half of the
// regression harness: the full fast engine (workers + caches + restructured
// evaluators) against Config.LocalOpts.Reference, across objectives and transports —
// same centers, same bytes, same coordinator cost.
func TestEngineMatchesReferenceEndToEnd(t *testing.T) {
	sites := parityWorkload(t)
	for _, obj := range []dpc.Objective{dpc.Median, dpc.Means, dpc.Center} {
		for _, tr := range []dpc.TransportKind{dpc.TransportLoopback, dpc.TransportTCP} {
			obj, tr := obj, tr
			t.Run(fmt.Sprintf("%v-%v", obj, tr), func(t *testing.T) {
				ref, err := dpc.Run(sites, dpc.Config{K: 4, T: 45, Objective: obj, Transport: tr, LocalOpts: dpc.SolverOptions{Options: dpc.EngineOptions{Reference: true}}})
				if err != nil {
					t.Fatal(err)
				}
				got, err := dpc.Run(sites, dpc.Config{K: 4, T: 45, Objective: obj, Transport: tr})
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, fmt.Sprintf("%v/%v fast-vs-reference", obj, tr), ref, got)
			})
		}
	}
}
