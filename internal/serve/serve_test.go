package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpc/internal/gen"
)

// testPoints returns a small deterministic planted workload as JSON rows.
func testPoints(n, k int, seed int64) [][]float64 { return testPointsDim(n, k, 2, seed) }

// testPointsDim is testPoints at a chosen dimension: the tests about pooled
// shard caches need one metric.Memoizes memoizes.
func testPointsDim(n, k, dim int, seed int64) [][]float64 {
	in := gen.Mixture(gen.MixtureSpec{N: n, K: k, Dim: dim, OutlierFrac: 0.05, Seed: seed})
	rows := make([][]float64, len(in.Pts))
	for i, p := range in.Pts {
		rows[i] = p
	}
	return rows
}

// api wraps an httptest server for terse request helpers.
type api struct {
	t   *testing.T
	srv *httptest.Server
}

func newAPI(t *testing.T, cfg Config) (*api, *Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return &api{t: t, srv: hs}, s
}

// do performs a request and decodes the JSON reply into out (skipped when
// out is nil), asserting the status code.
func (a *api) do(method, path string, body any, wantCode int, out any) {
	a.t.Helper()
	var rd *bytes.Reader
	ct := "application/json"
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string: // raw CSV
		rd = bytes.NewReader([]byte(b))
		ct = "text/csv"
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			a.t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, a.srv.URL+path, rd)
	if err != nil {
		a.t.Fatalf("%s %s: %v", method, path, err)
	}
	req.Header.Set("Content-Type", ct)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		a.t.Fatalf("%s %s: status %d, want %d (%v)", method, path, resp.StatusCode, wantCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			a.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
}

// waitJob polls until the job leaves the queued/running states.
func waitJob(t *testing.T, a *api, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var j Job
		a.do("GET", "/v1/jobs/"+id, nil, http.StatusOK, &j)
		if j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCanceled {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func TestDatasetLifecycleHTTP(t *testing.T) {
	a, _ := newAPI(t, Config{})

	// JSON registration.
	var info DatasetInfo
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(200, 3, 1)},
		http.StatusCreated, &info)
	if info.Kind != KindTable || info.Points != 200 || info.Dim != 2 {
		t.Fatalf("registered %+v", info)
	}
	versionAtCreate := info.Version
	// Duplicate name rejected as a conflict.
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(10, 2, 1)},
		http.StatusConflict, nil)
	// CSV registration via query-param name.
	a.do("POST", "/v1/datasets?name=csvds", "0.5,1.5\n2.5,3.5\n4.5,5.5\n", http.StatusCreated, &info)
	if info.Points != 3 {
		t.Fatalf("csv dataset: %+v", info)
	}
	// Append: table grows, version bumps (versions are registry-global and
	// monotonic, so stale cache keys can never be reused).
	a.do("POST", "/v1/datasets/tbl/points", appendPointsRequest{Points: testPoints(50, 2, 9)},
		http.StatusOK, &info)
	if info.Points != 250 || info.Version <= versionAtCreate {
		t.Fatalf("after append: %+v (version at create %d)", info, versionAtCreate)
	}
	// Dimension mismatch rejected.
	a.do("POST", "/v1/datasets/tbl/points", appendPointsRequest{Points: [][]float64{{1, 2, 3}}},
		http.StatusBadRequest, nil)
	// List and get.
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	a.do("GET", "/v1/datasets", nil, http.StatusOK, &list)
	if len(list.Datasets) != 2 {
		t.Fatalf("listed %d datasets, want 2", len(list.Datasets))
	}
	a.do("GET", "/v1/datasets/nope", nil, http.StatusNotFound, nil)
	// Delete.
	a.do("DELETE", "/v1/datasets/csvds", nil, http.StatusNoContent, nil)
	a.do("GET", "/v1/datasets/csvds", nil, http.StatusNotFound, nil)

	// Hostile names rejected.
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "../etc", Points: testPoints(5, 1, 1)},
		http.StatusBadRequest, nil)

	// A retired kind and a server-only kind are rejected by name, and
	// register nothing.
	for kind, body := range map[string]string{
		"stream": `{"name":"s","kind":"stream","k":8,"t":64}`,
		"remote": `{"name":"s","kind":"remote"}`,
	} {
		var e APIErrorBody
		a.do("POST", "/v1/datasets", json.RawMessage(body), http.StatusBadRequest, &e)
		if e.Code != CodeBadRequest || !strings.Contains(e.Error, kind) {
			t.Errorf("%s: %+v, want %s naming %q", body, e, CodeBadRequest, kind)
		}
	}
	a.do("GET", "/v1/datasets/s", nil, http.StatusNotFound, nil)
}

func TestJobValidationHTTP(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "d", Points: testPoints(100, 2, 2)},
		http.StatusCreated, nil)
	// Unknown dataset (404 + stable code) and bad enums fail synchronously.
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "nope", K: 2}, http.StatusNotFound, nil)
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "d", K: 2, Objective: "mode"}, http.StatusBadRequest, nil)
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "d", K: 2, Variant: "3round"}, http.StatusBadRequest, nil)
	// An unknown engine fails at decode, in the string and the object form.
	for _, body := range []string{`{"dataset":"d","k":2,"engine":"warp"}`, `{"dataset":"d","k":2,"engine":{"algo":"warp"}}`} {
		a.do("POST", "/v1/jobs", json.RawMessage(body), http.StatusBadRequest, nil)
	}
	a.do("GET", "/v1/jobs/job-999999", nil, http.StatusNotFound, nil)
	// Degenerate shapes fail synchronously too.
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "d", K: 0}, http.StatusBadRequest, nil)
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "d", K: 2, T: -1}, http.StatusBadRequest, nil)
	// So does an eps that budgets nothing: negative, or (1+eps)t overflows.
	for _, eps := range []float64{-5, 1e308} {
		a.do("POST", "/v1/jobs", JobSpec{Dataset: "d", K: 2, T: 2, Eps: eps}, http.StatusBadRequest, nil)
	}
}

func TestHealthzAndMetricsHTTP(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "m", Points: testPoints(150, 2, 3)},
		http.StatusCreated, nil)
	var h map[string]any
	a.do("GET", "/healthz", nil, http.StatusOK, &h)
	if h["status"] != "ok" {
		t.Fatalf("healthz: %v", h)
	}
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "m", K: 2, T: 5, Seed: 1}, http.StatusAccepted, &job)
	waitJob(t, a, job.ID)

	resp, err := http.Get(a.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"dpc_uptime_seconds",
		`dpc_jobs_total{status="done"} 1`,
		"dpc_datasets 1",
		"dpc_cache_pool_entries",
		`dpc_dataset_cache_lookups_total{dataset="m",kind="hit"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestJobsCSVEndpoint(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "c", Points: testPoints(120, 2, 6)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "c", K: 2, T: 6, Seed: 1}, http.StatusAccepted, &job)
	j := waitJob(t, a, job.ID)
	if j.Status != StatusDone {
		t.Fatalf("job failed: %s", j.Error)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/centers.csv", a.srv.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("centers.csv status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("centers.csv has %d rows, want 2:\n%s", len(lines), buf.String())
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	s := New(Config{})
	s.Registry().RegisterTable("d", rowsToPoints(testPoints(50, 2, 1)))
	s.Close()
	if _, err := s.Submit(JobSpec{Dataset: "d", K: 2}); err == nil {
		t.Fatalf("submit after close succeeded")
	}
}

// TestStreamAppendRejectsDimensionMismatch: an append batch whose points
// do not all match the dataset's dimension is rejected whole (no point of
// it lands, the version stays), and the rejection leaves no lock held, so
// the next valid append lands.
func TestStreamAppendRejectsDimensionMismatch(t *testing.T) {
	a, _ := newAPI(t, Config{})
	var info DatasetInfo
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "sd", Points: [][]float64{{1, 2}, {3, 4}}},
		http.StatusCreated, &info)
	versionBefore := info.Version
	a.do("POST", "/v1/datasets/sd/points", appendPointsRequest{Points: [][]float64{{1, 2, 3}}},
		http.StatusBadRequest, nil)
	a.do("POST", "/v1/datasets/sd/points", appendPointsRequest{Points: [][]float64{{1, 2}, {1, 2, 3}}},
		http.StatusBadRequest, nil)
	a.do("GET", "/v1/datasets/sd", nil, http.StatusOK, &info)
	if info.Points != 2 || info.Version != versionBefore {
		t.Fatalf("after rejected batches: %+v, want 2 points at version %d", info, versionBefore)
	}
	a.do("POST", "/v1/datasets/sd/points", appendPointsRequest{Points: [][]float64{{5, 6}}},
		http.StatusOK, &info)
	if info.Points != 3 || info.Version <= versionBefore {
		t.Fatalf("append after a rejected batch: %+v", info)
	}
}

func TestDeleteAndReregisterNeverReusesStaleCaches(t *testing.T) {
	a, s := newAPI(t, Config{})
	first := testPointsDim(100, 2, 8, 70)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "re", Points: first}, http.StatusCreated, nil)
	spec := JobSpec{Dataset: "re", K: 2, T: 5, Sites: 2, Seed: 4}
	var job Job
	a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
	j1 := waitJob(t, a, job.ID)
	if j1.Status != StatusDone {
		t.Fatalf("job 1 failed: %s", j1.Error)
	}
	buildsAfter1 := s.Registry().Pool().Stats().Builds

	// Same name, same point count, different data: the re-registered
	// dataset must get fresh caches (fresh registry-global version), so
	// results reflect the new points.
	a.do("DELETE", "/v1/datasets/re", nil, http.StatusNoContent, nil)
	second := testPointsDim(100, 2, 8, 71)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "re", Points: second}, http.StatusCreated, nil)
	a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
	j2 := waitJob(t, a, job.ID)
	if j2.Status != StatusDone {
		t.Fatalf("job 2 failed: %s", j2.Error)
	}
	if got := s.Registry().Pool().Stats().Builds; got != buildsAfter1+2 {
		t.Fatalf("re-registered dataset built %d new caches, want 2 fresh shard caches", got-buildsAfter1)
	}
	want := oneShot(t, rowsToPoints(second), spec)
	assertCentersEqual(t, j2.Result.Centers, want.Centers, "post-reregister job")
}

func TestJobSitesBounded(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "b", Points: testPoints(60, 2, 8)},
		http.StatusCreated, nil)
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "b", K: 2, Sites: MaxJobSites + 1}, http.StatusBadRequest, nil)
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "b", K: 2, Sites: -1}, http.StatusBadRequest, nil)
}

func TestTableJobRejectsBudgetCoveringDataset(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tiny", Points: testPoints(20, 2, 12)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tiny", K: 2, T: 25, Sites: 2}, http.StatusAccepted, &job)
	j := waitJob(t, a, job.ID)
	if j.Status != StatusFailed {
		t.Fatalf("t >= n job returned %s with %d centers, want failure",
			j.Status, len(j.Result.Centers))
	}
	if !strings.Contains(j.Error, "out of range") {
		t.Fatalf("unhelpful error: %q", j.Error)
	}
}

// TestAppendReclaimsReplacedVersionCaches: an append bumps the table's
// version, and no later job can ask for the old one — so the old version's
// pooled shard caches must leave the pool with the append, not sit there
// until LRU pressure (a steady ingest otherwise fills the pool with caches
// nobody can reach).
func TestAppendReclaimsReplacedVersionCaches(t *testing.T) {
	a, s := newAPI(t, Config{})
	rows := testPointsDim(100, 2, 8, 72)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "grow", Points: rows}, http.StatusCreated, nil)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "still", Points: testPointsDim(80, 2, 8, 73)}, http.StatusCreated, nil)
	run := func(spec JobSpec) Job {
		t.Helper()
		var job Job
		a.do("POST", "/v1/jobs", spec, http.StatusAccepted, &job)
		j := waitJob(t, a, job.ID)
		if j.Status != StatusDone {
			t.Fatalf("job on %q failed: %s", spec.Dataset, j.Error)
		}
		return j
	}
	spec := JobSpec{Dataset: "grow", K: 2, T: 5, Sites: 2, Seed: 4}
	run(spec)
	run(JobSpec{Dataset: "still", K: 2, T: 4, Sites: 2, Seed: 4})
	pool := s.Registry().Pool()
	if got := pool.Stats().Entries; got != 4 {
		t.Fatalf("pool holds %d caches after two 2-site jobs, want 4", got)
	}

	more := testPointsDim(20, 2, 8, 74)
	a.do("POST", "/v1/datasets/grow/points", appendPointsRequest{Points: more}, http.StatusOK, nil)
	for _, e := range pool.Entries() {
		if !strings.HasPrefix(e.Key, "still@v") {
			t.Fatalf("pool still holds %q after the append replaced that version", e.Key)
		}
	}
	if got := pool.Stats().Entries; got != 2 {
		t.Fatalf("pool holds %d caches after the append, want the other dataset's 2", got)
	}

	j := run(spec)
	if got := pool.Stats().Entries; got != 4 {
		t.Fatalf("pool holds %d caches after the post-append job, want 4", got)
	}
	want := oneShot(t, rowsToPoints(append(rows, more...)), spec)
	assertCentersEqual(t, j.Result.Centers, want.Centers, "post-append job")
}
