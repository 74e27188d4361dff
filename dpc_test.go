package dpc_test

import (
	"testing"

	"dpc"
)

// The facade test exercises the full public API surface end to end, the way
// a downstream user would.
func TestFacadeDeterministic(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 400, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 1})
	parts := dpc.Partition(in, 4, dpc.PartitionUniform, 2)
	sites := dpc.SitePoints(in, parts)

	for _, obj := range []dpc.Objective{dpc.Median, dpc.Means, dpc.Center} {
		res, err := dpc.Run(sites, dpc.Config{K: 3, T: 20, Objective: obj})
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if len(res.Centers) == 0 {
			t.Fatalf("%v: no centers", obj)
		}
		cost := dpc.Evaluate(dpc.FlattenSites(sites), res.Centers, res.OutlierBudget, obj)
		if cost < 0 {
			t.Fatalf("%v: negative cost", obj)
		}
		if res.Report.Rounds != 2 {
			t.Fatalf("%v: %d rounds", obj, res.Report.Rounds)
		}
		if res.Report.TotalBytes() == 0 {
			t.Fatalf("%v: no communication measured", obj)
		}
	}
}

func TestFacadeVariants(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 300, K: 2, OutlierFrac: 0.1, Seed: 3})
	parts := dpc.Partition(in, 3, dpc.PartitionOutlierHeavy, 4)
	sites := dpc.SitePoints(in, parts)
	for _, v := range []dpc.Variant{dpc.TwoRound, dpc.TwoRoundNoOutliers, dpc.OneRound} {
		res, err := dpc.Run(sites, dpc.Config{K: 2, T: 30, Objective: dpc.Median, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Centers) == 0 {
			t.Fatalf("%v: no centers", v)
		}
	}
}

func TestFacadeUncertain(t *testing.T) {
	in := dpc.UncertainMixture(dpc.UncertainSpec{N: 120, K: 2, Support: 3, OutlierFrac: 0.05, Seed: 5})
	parts := dpc.PartitionNodes(in, 3, dpc.PartitionUniform, 6)
	sites := dpc.SiteNodes(in, parts)

	res, err := dpc.RunUncertain(in.Ground, sites, dpc.UncertainConfig{K: 2, T: 6}, dpc.UncertainMedian)
	if err != nil {
		t.Fatal(err)
	}
	cost := dpc.EvalUncertainMedian(in.Ground, in.Nodes, res.Centers, res.OutlierBudget)
	if cost < 0 {
		t.Fatal("negative cost")
	}
	if v := dpc.EvalUncertainMeans(in.Ground, in.Nodes, res.Centers, res.OutlierBudget); v < 0 {
		t.Fatal("negative means cost")
	}
	if v := dpc.EvalUncertainCenterPP(in.Ground, in.Nodes, res.Centers, res.OutlierBudget); v < 0 {
		t.Fatal("negative pp cost")
	}

	cg, err := dpc.RunCenterG(in.Ground, sites, dpc.CenterGConfig{K: 2, T: 6})
	if err != nil {
		t.Fatal(err)
	}
	if cg.Tau <= 0 || len(cg.Centers) == 0 {
		t.Fatal("center-g degenerate result")
	}
	if v := dpc.EvalUncertainCenterG(in.Ground, in.Nodes, cg.Centers, cg.OutlierBudget, 50, 7); v < 0 {
		t.Fatal("negative center-g estimate")
	}
}

func TestFacadeCentralized(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 500, K: 3, OutlierFrac: 0.05, Seed: 8})
	direct, err := dpc.Centralized(in.Pts, dpc.CentralConfig{K: 3, T: 25, Levels: 0})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := dpc.Centralized(in.Pts, dpc.CentralConfig{K: 3, T: 25, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cost <= 0 || sim.Cost <= 0 {
		t.Fatal("degenerate costs")
	}
	if sim.TopChunks < 10 {
		t.Fatalf("level-1 chunks = %d", sim.TopChunks)
	}
	if sim.Cost > 8*direct.Cost {
		t.Fatalf("simulation cost ratio %.2f", sim.Cost/direct.Cost)
	}
}

func TestFacadeStream(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 1500, K: 3, OutlierFrac: 0.04, Seed: 20})
	sk, err := dpc.NewStream(dpc.StreamConfig{K: 3, T: 60, Chunk: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in.Pts {
		sk.Add(p)
	}
	if sk.Size() > 300 {
		t.Fatalf("sketch size %d exceeds chunk", sk.Size())
	}
	res := sk.Finish()
	if len(res.Centers) == 0 || len(res.Centers) > 3 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	cost := dpc.Evaluate(in.Pts, res.Centers, 60, dpc.Median)
	batch, err := dpc.Centralized(in.Pts, dpc.CentralConfig{K: 3, T: 60, Levels: 0, Eps: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Cost > 0 && cost > 6*batch.Cost {
		t.Fatalf("stream %g vs batch %g", cost, batch.Cost)
	}
}

func TestFacadeGraphOracle(t *testing.T) {
	g, err := dpc.GraphMetric(4, []dpc.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 50}})
	if err != nil {
		t.Fatal(err)
	}
	sol := dpc.SolvePartialMedian(g, nil, 1, 1, dpc.SolverOptions{Seed: 1})
	if got := sol.Outliers(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("outliers = %v, want the far node [3]", got)
	}
	cen := dpc.SolvePartialCenter(g, nil, 1, 1)
	if cen.Radius > 2 {
		t.Fatalf("center radius = %g", cen.Radius)
	}
}

func TestFacadeEngines(t *testing.T) {
	in := dpc.Mixture(dpc.MixtureSpec{N: 90, K: 2, OutlierFrac: 0.05, Seed: 9})
	parts := dpc.Partition(in, 2, dpc.PartitionUniform, 10)
	sites := dpc.SitePoints(in, parts)
	for _, e := range []dpc.Engine{dpc.EngineAuto, dpc.EngineLocalSearch, dpc.EngineJV} {
		res, err := dpc.Run(sites, dpc.Config{
			K: 2, T: 4, Objective: dpc.Median,
			LocalOpts: dpc.SolverOptions{Seed: 11, Options: dpc.EngineOptions{Algo: e}},
		})
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		if len(res.Centers) == 0 {
			t.Fatalf("engine %v: no centers", e)
		}
	}
}
