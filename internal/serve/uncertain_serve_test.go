package serve

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/uncertain"
)

// wireNodes converts a planted uncertain instance to the JSON node format.
func wireNodes(in gen.UncertainInstance) []NodeWire {
	wire := make([]NodeWire, len(in.Nodes))
	for j, nd := range in.Nodes {
		w := NodeWire{Points: make([][]float64, len(nd.Support)), Probs: append([]float64(nil), nd.Prob...)}
		for i, u := range nd.Support {
			w.Points[i] = in.Ground.Pts[u]
		}
		wire[j] = w
	}
	return wire
}

// TestBuildUncertainRejectsBadProbabilities: a NaN or +Inf probability
// fails the build, with or without an explicit ground set, instead of
// slipping past the range and sum checks into a solver.
func TestBuildUncertainRejectsBadProbabilities(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), 0, -0.5} {
		inline := []NodeWire{{Points: [][]float64{{0, 0}, {1, 0}}, Probs: []float64{p, 0.5}}}
		if _, _, err := buildUncertain(nil, inline); err == nil {
			t.Errorf("inline node with probability %g accepted", p)
		}
		indexed := []NodeWire{{Support: []int{0, 1}, Probs: []float64{0.5, p}}}
		if _, _, err := buildUncertain([][]float64{{0, 0}, {1, 0}}, indexed); err == nil {
			t.Errorf("indexed node with probability %g accepted", p)
		}
	}
}

// TestUncertainDatasetJobsHTTP is the "uncertain jobs as a service
// workload" acceptance: register distribution-valued nodes over the API,
// run Algorithm 3 and Algorithm 4 as jobs, and get results bit-identical
// to the equivalent in-process uncertain.Run.
func TestUncertainDatasetJobsHTTP(t *testing.T) {
	in := gen.UncertainMixture(gen.UncertainSpec{N: 60, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 19})
	a, _ := newAPI(t, Config{})

	var info DatasetInfo
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "unc", Kind: KindUncertain, Nodes: wireNodes(in)},
		http.StatusCreated, &info)
	if info.Kind != KindUncertain || info.Nodes != 60 || info.GroundPoints != in.Ground.N() {
		t.Fatalf("registered %+v", info)
	}

	// u-median job == in-process Algorithm 3 on the same sharding.
	const sites, k, tt = 4, 3, 6
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "unc", K: k, T: tt, Objective: "u-median", Sites: sites, Seed: 2},
		http.StatusAccepted, &job)
	j := waitJob(t, a, job.ID)
	if j.Status != StatusDone {
		t.Fatalf("u-median job failed: %s", j.Error)
	}
	want, err := uncertain.Run(in.Ground, dataio.SplitNodesRoundRobin(in.Nodes, sites),
		uncertain.Config{K: k, T: tt, LocalOpts: kmedian.Options{Seed: 2}}, uncertain.Median)
	if err != nil {
		t.Fatal(err)
	}
	assertCentersEqual(t, j.Result.Centers, want.Centers, "u-median job")
	if j.Result.CostKind != "global" {
		t.Fatalf("u-median cost kind %q, want global", j.Result.CostKind)
	}
	if j.Result.UpBytes != want.Report.UpBytes {
		t.Fatalf("u-median job up bytes %d, in-process %d", j.Result.UpBytes, want.Report.UpBytes)
	}

	// u-centerg runs Algorithm 4 and reports tau-search metadata via the
	// Monte-Carlo cost estimate.
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "unc", K: k, T: 4, Objective: "u-centerg", Sites: sites, Seed: 2},
		http.StatusAccepted, &job)
	if j := waitJob(t, a, job.ID); j.Status != StatusDone {
		t.Fatalf("u-centerg job failed: %s", j.Error)
	} else if j.Result.CostKind != "estimate" || len(j.Result.Centers) == 0 {
		t.Fatalf("u-centerg result: kind %q, %d centers", j.Result.CostKind, len(j.Result.Centers))
	}

	// Objective/dataset-kind mismatches fail loudly, both directions.
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "unc", K: 2, T: 2, Objective: "median"}, http.StatusAccepted, &job)
	if j := waitJob(t, a, job.ID); j.Status != StatusFailed || !strings.Contains(j.Error, "does not apply") {
		t.Fatalf("point objective on uncertain dataset: %s (%s)", j.Status, j.Error)
	}
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(50, 2, 3)},
		http.StatusCreated, nil)
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 2, T: 2, Objective: "u-median"}, http.StatusAccepted, &job)
	if j := waitJob(t, a, job.ID); j.Status != StatusFailed {
		t.Fatalf("u-median on a table dataset succeeded")
	}

	// Uncertain datasets are append-free by design.
	a.do("POST", "/v1/datasets/unc/points", appendPointsRequest{Points: [][]float64{{1, 2}}},
		http.StatusBadRequest, nil)
	// Bad node payloads are rejected.
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "bad", Kind: KindUncertain,
		Nodes: []NodeWire{{Points: [][]float64{{1, 2}}, Probs: []float64{0.5, 0.5}}}},
		http.StatusBadRequest, nil)
}

// TestUncertainCSVUpload registers an uncertain dataset from the CSV node
// format (?kind=uncertain) and answers a job from it.
func TestUncertainCSVUpload(t *testing.T) {
	a, _ := newAPI(t, Config{})
	csv := "n0,0.5,0,0\nn0,0.5,1,0\nn1,1,4,4\nn2,0.7,8,8\nn2,0.3,9,8\nn3,1,0,1\n"
	var info DatasetInfo
	a.do("POST", "/v1/datasets?name=ucsv&kind=uncertain", csv, http.StatusCreated, &info)
	if info.Kind != KindUncertain || info.Nodes != 4 || info.GroundPoints != 6 {
		t.Fatalf("csv uncertain dataset: %+v", info)
	}
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "ucsv", K: 2, T: 1, Objective: "u-median", Sites: 2},
		http.StatusAccepted, &job)
	if j := waitJob(t, a, job.ID); j.Status != StatusDone {
		t.Fatalf("csv-registered uncertain job failed: %s", j.Error)
	}
}

// slowDataset registers a dataset big enough that a job against it runs
// long enough to be cancelled/drained deterministically.
func slowDataset(t *testing.T, s *Server, name string) JobSpec {
	t.Helper()
	if _, err := s.Registry().RegisterTable(name, rowsToPoints(testPoints(4000, 4, 23))); err != nil {
		t.Fatal(err)
	}
	return JobSpec{Dataset: name, K: 4, T: 120, Sites: 2, Seed: 1}
}

// TestCancelRunningJobHTTP cancels a job mid-solve over the API and sees
// the canceled terminal status.
func TestCancelRunningJobHTTP(t *testing.T) {
	a, s := newAPI(t, Config{})
	spec := slowDataset(t, s, "slow")
	var job Job
	a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
	a.do("POST", "/v1/jobs/"+job.ID+"/cancel", nil, http.StatusOK, nil)
	j := waitJob(t, a, job.ID)
	if j.Status != StatusCanceled {
		t.Fatalf("cancelled job ended %s (%s), want canceled", j.Status, j.Error)
	}
	if j.Result != nil {
		t.Fatalf("cancelled job kept a result")
	}
	// Cancelling a finished job is a no-op, and unknown jobs 404.
	a.do("POST", "/v1/jobs/"+job.ID+"/cancel", nil, http.StatusOK, nil)
	a.do("POST", "/v1/jobs/job-999999/cancel", nil, http.StatusNotFound, nil)
}

// TestShutdownDrainsQueue is the graceful-shutdown acceptance: a drain
// marks still-queued jobs failed with an explicit reason (instead of
// abandoning or silently running them), lets the running job finish, and
// rejects new submissions.
func TestShutdownDrainsQueue(t *testing.T) {
	s := New(Config{MaxConcurrentJobs: 1, QueueDepth: 8})
	spec := slowDataset(t, s, "drain")

	running, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick the first job up, then queue more.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _ := s.GetJob(running.ID)
		if j.Status != StatusQueued || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	var queued []Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, q := range queued {
		j, err := s.GetJob(q.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusFailed || !strings.Contains(j.Error, "shutting down") {
			t.Fatalf("queued job %s ended %s (%q), want failed with a shutdown reason", q.ID, j.Status, j.Error)
		}
	}
	if j, _ := s.GetJob(running.ID); j.Status != StatusDone {
		t.Fatalf("running job ended %s (%s), want done (no-deadline drain lets it finish)", j.Status, j.Error)
	}
	if _, err := s.Submit(spec); err == nil {
		t.Fatalf("submit after drain succeeded")
	}
}

// TestShutdownDeadlineCancelsRunning: an expired drain deadline cancels
// the running solve instead of waiting forever.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	s := New(Config{MaxConcurrentJobs: 1})
	spec := slowDataset(t, s, "hard")
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is genuinely running so the cancel has a target.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _ := s.GetJob(job.ID)
		if j.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (status %s)", j.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err == nil {
		// The solve may legitimately beat a 10ms deadline only on absurdly
		// fast hardware; treat that as a skip rather than a failure.
		t.Skipf("solve finished inside the drain deadline (%v)", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline drain took %v", elapsed)
	}
	j, err := s.GetJob(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != StatusCanceled {
		t.Fatalf("drained job ended %s (%s), want canceled", j.Status, j.Error)
	}
}
