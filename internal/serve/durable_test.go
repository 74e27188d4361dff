package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"dpc/internal/journal"
)

// TestJournalReplayReServesResults: a server journals its datasets and
// finished jobs; a second server on the same journal dir re-serves the
// finished result bit for bit with zero recompute (the job arrives
// already done, marked Replayed).
func TestJournalReplayReServesResults(t *testing.T) {
	dir := t.TempDir()
	a, s1 := newAPI(t, Config{JournalDir: dir})

	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(300, 3, 7)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 3, T: 5, Seed: 42}, http.StatusAccepted, &job)
	done := waitJob(t, a, job.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}

	// Clean shutdown seals the journal before the next life opens it.
	s1.Close()

	b, s2 := newAPI(t, Config{JournalDir: dir})
	rec := s2.Recovery()
	if rec.Records == 0 || rec.JobsReplayed != 1 || !rec.Sealed || len(rec.Errors) != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	// The dataset is back without re-ingest.
	var info DatasetInfo
	b.do("GET", "/v1/datasets/tbl", nil, http.StatusOK, &info)
	if info.Points != 300 {
		t.Fatalf("replayed dataset: %+v", info)
	}
	// The finished job is back, marked replayed, result identical.
	var again Job
	b.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &again)
	if again.Status != StatusDone || !again.Replayed {
		t.Fatalf("replayed job: status %s, replayed %v", again.Status, again.Replayed)
	}
	if !reflect.DeepEqual(again.Result.Centers, done.Result.Centers) {
		t.Fatalf("replayed centers differ:\n  was %v\n  now %v", done.Result.Centers, again.Result.Centers)
	}
	// Zero recompute: the done counter counts this life's solves only.
	if got := s2.counters.jobsDone.Load(); got != 0 {
		t.Fatalf("jobsDone = %d after replay, want 0 (result must be re-served, not re-solved)", got)
	}
	// A fresh identical submission on the replayed registry still solves
	// to the same centers (the dataset really is bit-identical).
	var job2 Job
	b.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 3, T: 5, Seed: 42}, http.StatusAccepted, &job2)
	if redo := waitJob(t, b, job2.ID); !reflect.DeepEqual(redo.Result.Centers, done.Result.Centers) {
		t.Fatalf("re-solve on replayed dataset diverged")
	}
}

// TestJournalResumesQueuedJobs: a journal holding a submission without a
// finish (the crash signature — the process died before the job ran)
// replays into a queued job that then executes to completion.
func TestJournalResumesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	// Fabricate the crashed life's journal directly: dataset + submitted
	// job, no finish record, no seal.
	jl, _, err := journal.OpenDir(dir, journal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	put, _ := json.Marshal(walDataset{Name: "tbl", Kind: KindTable, Points: testPoints(200, 3, 3)})
	sub, _ := json.Marshal(walSubmit{ID: "job-000007", Spec: JobSpec{Dataset: "tbl", K: 3, T: 2, Seed: 1}, Submitted: time.Now()})
	if _, err := jl.Append(recDatasetPut, put); err != nil {
		t.Fatal(err)
	}
	if _, err := jl.Append(recJobSubmit, sub); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil { // crash: no seal
		t.Fatal(err)
	}

	a, s := newAPI(t, Config{JournalDir: dir})
	rec := s.Recovery()
	if rec.JobsResumed != 1 || rec.Sealed {
		t.Fatalf("recovery stats: %+v", rec)
	}
	job := waitJob(t, a, "job-000007")
	if job.Status != StatusDone || !job.Replayed {
		t.Fatalf("resumed job: %+v", job)
	}
	// The resumed id seeds the sequence: the next job must not collide.
	var next Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 2, T: 0}, http.StatusAccepted, &next)
	if next.ID <= "job-000007" {
		t.Fatalf("id %s did not advance past the resumed job", next.ID)
	}
}

// TestJournalResumesEveryQueuedJob: replay requeues every journaled job,
// however small the restarted server's QueueDepth — they were all accepted
// once. Six unfinished submissions replayed into QueueDepth 1 and one slot
// must all run to completion.
func TestJournalResumesEveryQueuedJob(t *testing.T) {
	const jobs = 6
	dir := t.TempDir()
	jl, _, err := journal.OpenDir(dir, journal.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	put, _ := json.Marshal(walDataset{Name: "tbl", Kind: KindTable, Points: testPoints(120, 3, 5)})
	if _, err := jl.Append(recDatasetPut, put); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 1; i <= jobs; i++ {
		ws := walSubmit{ID: fmt.Sprintf("job-%06d", i), Spec: JobSpec{Dataset: "tbl", K: 3, T: 2, Seed: int64(i)}, Submitted: time.Now()}
		sub, _ := json.Marshal(ws)
		if _, err := jl.Append(recJobSubmit, sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ws.ID)
	}
	if err := jl.Close(); err != nil { // crash: no finish records, no seal
		t.Fatal(err)
	}

	a, s := newAPI(t, Config{JournalDir: dir, QueueDepth: 1, MaxConcurrentJobs: 1})
	if rec := s.Recovery(); rec.JobsResumed != jobs {
		t.Fatalf("recovery stats: %+v", rec)
	}
	for _, id := range ids {
		if j := waitJob(t, a, id); j.Status != StatusDone {
			t.Fatalf("resumed job %s: %+v", id, j)
		}
	}
}

// TestJournalCorruptionDegrades: a corrupt journal surfaces a typed error
// from NewChecked, but the server still comes up ready (journal-less) —
// serving beats not serving.
func TestJournalCorruptionDegrades(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journal.SegmentPath(dir, 1), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewChecked(Config{JournalDir: dir})
	t.Cleanup(s.Close)
	if err == nil {
		t.Fatal("corrupt journal produced no error")
	}
	if !s.Ready() {
		t.Fatal("server not ready after degraded recovery")
	}
}

// TestJobTTLEvictsButJournalServes: the GC evicts finished jobs past the
// TTL from memory, and GetJob falls back to the journal so the result
// stays fetchable.
func TestJobTTLEvictsButJournalServes(t *testing.T) {
	dir := t.TempDir()
	a, s := newAPI(t, Config{JournalDir: dir, JobTTL: 50 * time.Millisecond})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(150, 2, 5)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 2, T: 1, Seed: 9}, http.StatusAccepted, &job)
	done := waitJob(t, a, job.ID)

	// Force the sweep deterministically instead of racing the ticker.
	s.sweep(time.Now().Add(time.Minute))
	if got := s.counters.jobsEvicted.Load(); got != 1 {
		t.Fatalf("jobsEvicted = %d, want 1", got)
	}
	s.mu.Lock()
	_, inMemory := s.jobs[job.ID]
	s.mu.Unlock()
	if inMemory {
		t.Fatal("job still in the in-memory store after eviction")
	}
	var again Job
	a.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &again)
	if again.Status != StatusDone || !again.Replayed || !reflect.DeepEqual(again.Result.Centers, done.Result.Centers) {
		t.Fatalf("journal-served job: %+v", again)
	}
	// centers.csv flows through the same fallback.
	a.do("GET", "/v1/jobs/"+job.ID+"/centers.csv", nil, http.StatusOK, nil)
}

// TestQuotaRejects: per-client token buckets bounce the over-quota client
// with the stable 429 code while other clients sail through.
func TestQuotaRejects(t *testing.T) {
	a, s := newAPI(t, Config{QuotaBurst: 2, QuotaPerSec: 0.001})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(100, 2, 2)},
		http.StatusCreated, nil)
	spec := JobSpec{Dataset: "tbl", K: 2, T: 0, Client: "hog"}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(spec); err != ErrQuotaExceeded {
		t.Fatalf("third submit: %v, want ErrQuotaExceeded", err)
	}
	// Another client is unaffected by the hog's empty bucket.
	spec.Client = "quiet"
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("other client: %v", err)
	}
	// Over HTTP: 429 with the stable code; X-DPC-Client is the fallback
	// identity when the spec carries none.
	body, _ := json.Marshal(JobSpec{Dataset: "tbl", K: 2})
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest("POST", a.srv.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-DPC-Client", "hog")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e APIErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || e.Code != CodeQuotaExceeded {
			t.Fatalf("hog request %d: status %d code %q, want 429 %q", i, resp.StatusCode, e.Code, CodeQuotaExceeded)
		}
	}
	if got := s.counters.jobsQuotaRejected.Load(); got < 4 {
		t.Fatalf("jobsQuotaRejected = %d, want >= 4", got)
	}
}

// TestPriorityClassesOrderDequeue: with one worker pinned by a running
// job, later submissions dequeue high before normal before low regardless
// of submission order.
func TestPriorityClassesOrderDequeue(t *testing.T) {
	a, s := newAPI(t, Config{MaxConcurrentJobs: 1})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "small", Points: testPoints(60, 2, 12)},
		http.StatusCreated, nil)

	// Pin the single worker deterministically (in-package tests may hold
	// a scheduler slot directly).
	unpin := pinSlot(t, s)
	defer unpin()

	// Queue low, then normal, then high while the worker is busy.
	ids := map[string]string{}
	for _, prio := range []string{PriorityLow, PriorityNormal, PriorityHigh} {
		var j Job
		a.do("POST", "/v1/jobs", JobSpec{Dataset: "small", K: 2, T: 0, Priority: prio}, http.StatusAccepted, &j)
		ids[prio] = j.ID
	}
	unpin()
	var started = map[string]time.Time{}
	for prio, id := range ids {
		j := waitJob(t, a, id)
		if j.Status != StatusDone || j.Started == nil {
			t.Fatalf("%s job: %+v", prio, j)
		}
		started[prio] = *j.Started
	}
	if !started[PriorityHigh].Before(started[PriorityNormal]) || !started[PriorityNormal].Before(started[PriorityLow]) {
		t.Fatalf("dequeue order wrong: high %v, normal %v, low %v",
			started[PriorityHigh], started[PriorityNormal], started[PriorityLow])
	}
}

// TestQueueDeadlineExpires: a queued job whose deadline passes while the
// only worker is busy fails with the stable code instead of running
// stale.
func TestQueueDeadlineExpires(t *testing.T) {
	a, s := newAPI(t, Config{MaxConcurrentJobs: 1})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "small", Points: testPoints(60, 2, 22)},
		http.StatusCreated, nil)
	unpin := pinSlot(t, s)

	var j Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "small", K: 2, T: 0, QueueTimeoutMS: 1}, http.StatusAccepted, &j)
	time.Sleep(10 * time.Millisecond) // let the 1ms deadline lapse while queued
	unpin()
	done := waitJob(t, a, j.ID)
	if done.Status != StatusFailed || done.ErrorCode != CodeQueueDeadline {
		t.Fatalf("expired job: status %s, code %q, want failed/%s", done.Status, done.ErrorCode, CodeQueueDeadline)
	}
	if got := s.counters.jobsExpired.Load(); got != 1 {
		t.Fatalf("jobsExpired = %d, want 1", got)
	}
}

// TestReadinessLifecycle: /livez answers from birth; /readyz (and every
// mutation) waits for Recover and flips off again at Shutdown.
func TestReadinessLifecycle(t *testing.T) {
	a, s := newAPI(t, Config{DeferRecovery: true})
	a.do("GET", "/livez", nil, http.StatusOK, nil)
	a.do("GET", "/readyz", nil, http.StatusServiceUnavailable, nil)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(50, 2, 1)},
		http.StatusServiceUnavailable, nil)
	if _, err := s.Submit(JobSpec{Dataset: "tbl", K: 2}); err != ErrNotReady {
		t.Fatalf("submit before recovery: %v, want ErrNotReady", err)
	}

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	a.do("GET", "/readyz", nil, http.StatusOK, nil)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(50, 2, 1)},
		http.StatusCreated, nil)

	s.Close()
	if s.Ready() {
		t.Fatal("ready after shutdown")
	}
	a.do("GET", "/readyz", nil, http.StatusServiceUnavailable, nil)
	a.do("GET", "/livez", nil, http.StatusOK, nil)
}

// TestPriorityHeapOrder exercises the dispatch heap directly: rank
// ordering across classes, FIFO within one.
func TestPriorityHeapOrder(t *testing.T) {
	var q jobQueue
	q.push(queueEntry{id: "n1", rank: 1, seq: 1})
	q.push(queueEntry{id: "l1", rank: 0, seq: 2})
	q.push(queueEntry{id: "h1", rank: 2, seq: 3})
	q.push(queueEntry{id: "h2", rank: 2, seq: 4})
	q.push(queueEntry{id: "n2", rank: 1, seq: 5})
	q.remove("n2")
	want := []string{"h1", "h2", "n1", "l1"}
	for _, id := range want {
		e, ok := q.pop()
		if !ok || e.id != id {
			t.Fatalf("pop = %v %v, want %s", e, ok, id)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("heap not empty")
	}
}
