package serve

import (
	"net/http"
	"testing"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// oneShot reproduces exactly what `dpc-cluster -k -t -objective -sites
// -seed` does: round-robin sharding plus core.Run with the CLI's config
// mapping. It is the measuring stick the server must match bit for bit.
func oneShot(t *testing.T, pts []metric.Point, spec JobSpec) core.Result {
	t.Helper()
	obj, err := parseObjective(spec.Objective)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := parseVariant(spec.Variant)
	if err != nil {
		t.Fatal(err)
	}
	sites := spec.Sites
	if sites <= 0 {
		sites = 8
	}
	res, err := core.Run(dataio.SplitRoundRobin(pts, sites), core.Config{
		K: spec.K, T: spec.T, Objective: obj, Variant: vr, Eps: spec.Eps,
		LocalOpts: kmedian.Options{Seed: spec.Seed},
	})
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
	return res
}

// assertCentersEqual requires bit-identical center sets.
func assertCentersEqual(t *testing.T, got [][]float64, want []metric.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centers, one-shot run found %d", label, len(got), len(want))
	}
	for i := range got {
		if !metric.Point(got[i]).Equal(want[i]) {
			t.Fatalf("%s: center %d = %v, one-shot run found %v", label, i, got[i], want[i])
		}
	}
}

// TestServerEndToEnd is the PR acceptance test: two jobs against one
// registered dataset must reuse the same shared DistCache (verified by a
// hit-count assertion) and return results identical to one-shot
// dpc-cluster-equivalent runs for the same (k, t, objective).
func TestServerEndToEnd(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 500, K: 4, Dim: 8, OutlierFrac: 0.05, Seed: 11})
	a, s := newAPI(t, Config{})

	var info DatasetInfo
	rows := make([][]float64, len(in.Pts))
	for i, p := range in.Pts {
		rows[i] = p
	}
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "e2e", Points: rows},
		http.StatusCreated, &info)

	median := JobSpec{Dataset: "e2e", K: 4, T: 25, Objective: "median", Sites: 4, Seed: 1}
	center := JobSpec{Dataset: "e2e", K: 4, T: 25, Objective: "center", Sites: 4, Seed: 1}

	// Job 1: cold caches — every lookup that fills a cell is a miss.
	var job1 Job
	a.do("POST", "/v1/jobs", median, http.StatusAccepted, &job1)
	j1 := waitJob(t, a, job1.ID)
	if j1.Status != StatusDone {
		t.Fatalf("job 1 failed: %s", j1.Error)
	}
	if j1.Result.CacheMisses == 0 {
		t.Fatalf("job 1 reported no cache misses; shared caches not in play")
	}
	missesAfter1 := j1.Result.CacheMisses

	// Job 2, identical query: same pooled caches, so the distance work is
	// already memoized — hits must grow while misses stay exactly put.
	var job2 Job
	a.do("POST", "/v1/jobs", median, http.StatusAccepted, &job2)
	j2 := waitJob(t, a, job2.ID)
	if j2.Status != StatusDone {
		t.Fatalf("job 2 failed: %s", j2.Error)
	}
	if j2.Result.CacheMisses != missesAfter1 {
		t.Fatalf("job 2 recomputed distances: misses %d -> %d (cache not shared)",
			missesAfter1, j2.Result.CacheMisses)
	}
	if j2.Result.CacheHits <= j1.Result.CacheHits {
		t.Fatalf("job 2 hit count did not grow (%d -> %d); cache reuse unproven",
			j1.Result.CacheHits, j2.Result.CacheHits)
	}
	// One pooled cache per shard, built exactly once across both jobs.
	pool := s.Registry().Pool().Stats()
	if pool.Builds != 4 {
		t.Fatalf("pool built %d caches, want 4 (one per shard)", pool.Builds)
	}

	// A center job over the same dataset shares the same per-shard caches
	// (they memoize raw distances; objectives wrap on top).
	var job3 Job
	a.do("POST", "/v1/jobs", center, http.StatusAccepted, &job3)
	j3 := waitJob(t, a, job3.ID)
	if j3.Status != StatusDone {
		t.Fatalf("center job failed: %s", j3.Error)
	}
	if got := s.Registry().Pool().Stats().Builds; got != 4 {
		t.Fatalf("center job built new caches (%d total), want the shared 4", got)
	}

	// Parity: every job's centers match the one-shot CLI-equivalent run.
	wantMedian := oneShot(t, in.Pts, median)
	assertCentersEqual(t, j1.Result.Centers, wantMedian.Centers, "median job 1")
	assertCentersEqual(t, j2.Result.Centers, wantMedian.Centers, "median job 2")
	wantCenter := oneShot(t, in.Pts, center)
	assertCentersEqual(t, j3.Result.Centers, wantCenter.Centers, "center job")

	// And the reported communication footprint matches the simulation.
	if j1.Result.UpBytes != wantMedian.Report.UpBytes || j1.Result.DownBytes != wantMedian.Report.DownBytes {
		t.Fatalf("job bytes (%d up, %d down) differ from one-shot (%d up, %d down)",
			j1.Result.UpBytes, j1.Result.DownBytes, wantMedian.Report.UpBytes, wantMedian.Report.DownBytes)
	}
	if j1.Result.Cost != core.Evaluate(in.Pts, wantMedian.Centers, wantMedian.OutlierBudget, core.Median) {
		t.Fatalf("job cost %v differs from one-shot evaluation", j1.Result.Cost)
	}
}

// TestMeansAndVariantsMatchOneShot covers the remaining objective/variant
// grid at small scale: server jobs must track one-shot runs everywhere.
func TestMeansAndVariantsMatchOneShot(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 300, K: 3, OutlierFrac: 0.04, Seed: 21})
	a, _ := newAPI(t, Config{})
	rows := make([][]float64, len(in.Pts))
	for i, p := range in.Pts {
		rows[i] = p
	}
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "grid", Points: rows},
		http.StatusCreated, nil)
	specs := []JobSpec{
		{Dataset: "grid", K: 3, T: 12, Objective: "means", Sites: 3, Seed: 2},
		{Dataset: "grid", K: 3, T: 12, Objective: "median", Variant: "1round", Sites: 3, Seed: 2},
		{Dataset: "grid", K: 3, T: 12, Objective: "median", Variant: "noship", Sites: 3, Seed: 2},
		{Dataset: "grid", K: 3, T: 12, Objective: "center", Variant: "1round", Sites: 3, Seed: 2},
	}
	for _, spec := range specs {
		var job Job
		a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
		j := waitJob(t, a, job.ID)
		if j.Status != StatusDone {
			t.Fatalf("%s/%s job failed: %s", spec.Objective, spec.Variant, j.Error)
		}
		want := oneShot(t, in.Pts, spec)
		assertCentersEqual(t, j.Result.Centers, want.Centers, spec.Objective+"/"+spec.Variant)
	}
}

// TestAppendInvalidatesSharding: after an append, jobs see the grown table
// (new version, fresh caches) and still match a one-shot run on the grown
// data.
func TestAppendGrowsDatasetForNewJobs(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 200, K: 2, OutlierFrac: 0.03, Seed: 31})
	more := gen.Mixture(gen.MixtureSpec{N: 100, K: 2, OutlierFrac: 0.03, Seed: 32})
	a, _ := newAPI(t, Config{})
	rows := make([][]float64, len(in.Pts))
	for i, p := range in.Pts {
		rows[i] = p
	}
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "growing", Points: rows},
		http.StatusCreated, nil)
	spec := JobSpec{Dataset: "growing", K: 2, T: 10, Sites: 2, Seed: 3}

	var job Job
	a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
	if j := waitJob(t, a, job.ID); j.Status != StatusDone {
		t.Fatalf("pre-append job failed: %s", j.Error)
	}

	moreRows := make([][]float64, len(more.Pts))
	for i, p := range more.Pts {
		moreRows[i] = p
	}
	a.do("POST", "/v1/datasets/growing/points", appendPointsRequest{Points: moreRows},
		http.StatusOK, nil)

	a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
	j := waitJob(t, a, job.ID)
	if j.Status != StatusDone {
		t.Fatalf("post-append job failed: %s", j.Error)
	}
	grown := append(append([]metric.Point(nil), in.Pts...), more.Pts...)
	want := oneShot(t, grown, spec)
	assertCentersEqual(t, j.Result.Centers, want.Centers, "post-append job")
}
