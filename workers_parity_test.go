package dpc_test

import (
	"fmt"
	"runtime"
	"testing"

	"dpc"
	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/kmedian"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// The parity matrix runs the protocols' own entry points: it compares
// CoordinatorCost, which a client.Response does not carry.

// engineCfg is the matrix's point run configuration under engine options e.
func engineCfg(obj core.Objective, tr transport.Kind, e engine.Options) core.Config {
	return core.Config{K: 4, T: 45, Objective: obj, Transport: tr, LocalOpts: kmedian.Options{Options: e}}
}

// parityWorkload builds the shared instance of the parity matrix.
func parityWorkload(t *testing.T) [][]dpc.Point {
	t.Helper()
	in := dpc.Mixture(dpc.MixtureSpec{N: 900, K: 4, OutlierFrac: 0.06, Seed: 41})
	parts := dpc.Partition(in, 5, dpc.PartitionUniform, 42)
	return dpc.SitePoints(in, parts)
}

func requireSameRun(t *testing.T, label string, ref, got core.Result) {
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
	for _, obj := range []core.Objective{core.Median, core.Means, core.Center} {
		for _, tr := range []transport.Kind{transport.KindLoopback, transport.KindTCP} {
			obj, tr := obj, tr
			t.Run(fmt.Sprintf("%v-%v", obj, tr), func(t *testing.T) {
				ref, err := core.Run(sites, engineCfg(obj, tr, engine.Options{Workers: 1}))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range widths {
					got, err := core.Run(sites, engineCfg(obj, tr, engine.Options{Workers: workers}))
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
	for _, v := range []core.Variant{core.TwoRoundNoOutliers, core.OneRound} {
		v := v
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			ref, err := core.Run(sites, core.Config{K: 4, T: 45, Variant: v, LocalOpts: kmedian.Options{Options: engine.Options{Workers: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Run(sites, core.Config{K: 4, T: 45, Variant: v, LocalOpts: kmedian.Options{Options: engine.Options{Workers: 4}}})
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
	for _, obj := range []uncertain.Objective{uncertain.Median, uncertain.Means, uncertain.CenterPP} {
		obj := obj
		t.Run(fmt.Sprint(obj), func(t *testing.T) {
			cfg := uncertain.Config{K: 3, T: 12}
			cfg.LocalOpts.Workers = 1
			ref, err := uncertain.Run(in.Ground, sites, cfg, obj)
			if err != nil {
				t.Fatal(err)
			}
			cfg.LocalOpts.Workers = 4
			got, err := uncertain.Run(in.Ground, sites, cfg, obj)
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
// evaluators) against core.Config.LocalOpts.Reference, across objectives and transports —
// same centers, same bytes, same coordinator cost.
func TestEngineMatchesReferenceEndToEnd(t *testing.T) {
	sites := parityWorkload(t)
	for _, obj := range []core.Objective{core.Median, core.Means, core.Center} {
		for _, tr := range []transport.Kind{transport.KindLoopback, transport.KindTCP} {
			obj, tr := obj, tr
			t.Run(fmt.Sprintf("%v-%v", obj, tr), func(t *testing.T) {
				ref, err := core.Run(sites, engineCfg(obj, tr, engine.Options{Reference: true}))
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Run(sites, engineCfg(obj, tr, engine.Options{}))
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, fmt.Sprintf("%v/%v fast-vs-reference", obj, tr), ref, got)
			})
		}
	}
}
