package dpc_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dpc"
	"dpc/client"
)

// The facade tests exercise the public surface end to end, the way a
// downstream user would: generators, a Request answered by the local
// client, and the evaluators. Solvers the public package does not export
// are checked with the packages that own them: the centralized solver's
// chunk count in internal/central (TestSimulatedLevelsStayReasonable), and
// the graph-oracle solvers in the kmedian and kcenter examples.

// do answers req on the local client, failing the test on error.
func do(t *testing.T, req dpc.Request) *dpc.Response {
	t.Helper()
	res, err := dpc.NewLocalClient().Do(context.Background(), req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Objective, req.Variant, err)
	}
	if len(res.Centers) == 0 {
		t.Fatalf("%s %s: no centers", req.Objective, req.Variant)
	}
	return res
}

func TestFacadeDeterministic(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 400, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 1})
	for obj, want := range map[string]dpc.Objective{"median": dpc.Median, "means": dpc.Means, "center": dpc.Center} {
		req := dpc.Request{Objective: obj, K: 3, T: 20, Sites: 4, Points: in.Pts}
		res := do(t, req)
		if cost := dpc.Evaluate(in.Pts, res.Centers, res.OutlierBudget, want); res.Cost != cost || res.CostKind != "global" {
			t.Fatalf("%s: cost %v (%s), Evaluate says %v", obj, res.Cost, res.CostKind, cost)
		}
		if res.Rounds != 2 {
			t.Fatalf("%s: %d rounds", obj, res.Rounds)
		}
		if res.UpBytes+res.DownBytes == 0 {
			t.Fatalf("%s: no communication measured", obj)
		}
		if again := do(t, req); !samePoints(again.Centers, res.Centers) {
			t.Fatalf("%s: a repeated request moved the centers", obj)
		}
	}
}

func TestFacadeVariants(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 300, K: 2, OutlierFrac: 0.1, Seed: 3})
	for _, v := range []string{"2round", "noship", "1round"} {
		do(t, dpc.Request{Objective: "median", Variant: v, K: 2, T: 30, Sites: 3, Points: in.Pts})
	}
}

func TestFacadeUncertain(t *testing.T) {
	in := dpc.UncertainMixture(dpc.UncertainSpec{N: 120, K: 2, Support: 3, OutlierFrac: 0.05, Seed: 5})
	req := dpc.Request{K: 2, T: 6, Sites: 3, Ground: in.Ground, Nodes: in.Nodes}
	for _, obj := range []string{"u-median", "u-means", "u-centerpp", "u-centerg"} {
		req.Objective = obj
		res := do(t, req)
		if res.Cost < 0 {
			t.Fatalf("%s: negative cost %v", obj, res.Cost)
		}
		switch obj {
		case "u-median":
			if cost := dpc.EvalUncertainMedian(in.Ground, in.Nodes, res.Centers, res.OutlierBudget); res.Cost != cost {
				t.Fatalf("u-median: cost %v, EvalUncertainMedian says %v", res.Cost, cost)
			}
		case "u-centerg":
			if res.Tau <= 0 || res.CostKind != "estimate" {
				t.Fatalf("u-centerg: tau %v, cost kind %q", res.Tau, res.CostKind)
			}
		}
	}
}

func TestFacadeCentralized(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 500, K: 3, OutlierFrac: 0.05, Seed: 8})
	req := dpc.Request{Objective: "median", K: 3, T: 25, Central: true, Points: in.Pts}
	direct := do(t, req)
	req.Levels = 1
	sim := do(t, req)
	if direct.Cost <= 0 || sim.Cost <= 0 {
		t.Fatal("degenerate costs")
	}
	if sim.Cost > 8*direct.Cost {
		t.Fatalf("simulation cost ratio %.2f", sim.Cost/direct.Cost)
	}
	if sim.Rounds != 0 || sim.UpBytes != 0 {
		t.Fatalf("central answer reports communication: %d rounds, %d bytes", sim.Rounds, sim.UpBytes)
	}
}

func TestFacadeEngines(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 90, K: 2, OutlierFrac: 0.05, Seed: 9})
	for _, e := range []dpc.Engine{dpc.EngineAuto, dpc.EngineLocalSearch, dpc.EngineJV} {
		do(t, dpc.Request{
			Objective: "median", K: 2, T: 4, Sites: 2, Seed: 11, Points: in.Pts,
			Engine: dpc.EngineSpec{Options: dpc.EngineOptions{Algo: e}},
		})
	}
}

// samePoints reports whether a and b hold the same points, bit for bit.
func samePoints(a, b []dpc.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestClusterSurvivesMixedDimensionSite: a fleet in which one site daemon
// holds 3-D points among 2-D ones fails every point job with an error that
// names that site, where the coordinator used to panic inside the distance
// kernel; the coordinator keeps serving jobs, and the sites still end
// cleanly on its close.
func TestClusterSurvivesMixedDimensionSite(t *testing.T) {
	flat := dpc.Mixture(dpc.MixtureSpec{N: 160, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 9}).Pts
	deep := dpc.Mixture(dpc.MixtureSpec{N: 80, K: 3, Dim: 3, OutlierFrac: 0.05, Seed: 10}).Pts
	shards := [][]dpc.Point{flat[:80], flat[80:], deep}
	ln, err := dpc.ListenCluster("127.0.0.1:0", len(shards))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, pts := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = client.ServeSite(ln.Addr(), client.SiteData{Site: i, Points: pts}, 10*time.Second)
		}()
	}
	fleet, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []string{"median", "means", "center"} {
		res, err := fleet.Do(context.Background(), dpc.Request{Objective: obj, K: 3, T: 6})
		if err == nil || !strings.Contains(err.Error(), "precluster from site 2") {
			t.Errorf("%s: got %v and error %v; want an error naming site 2", obj, res, err)
		}
	}
	fleet.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("site %d: %v", i, err)
		}
	}
}
