package serve

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"
)

// pinSlot holds one scheduler slot, as a running task would, until the
// returned function releases it (idempotent). Queued work dispatches on
// release exactly as when a task finishes.
func pinSlot(t *testing.T, s *Server) func() {
	t.Helper()
	select {
	case s.slots <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("no free scheduler slot to pin")
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			<-s.slots
			s.dispatchLocked()
			s.mu.Unlock()
		})
	}
}

// TestSchedulerQueueFullHTTP: with the one slot pinned and QueueDepth jobs
// waiting, the next submission is refused with 503 "queue_full", and the
// refused job is listed as failed; the waiting job still runs once the
// slot frees.
func TestSchedulerQueueFullHTTP(t *testing.T) {
	a, s := newAPI(t, Config{MaxConcurrentJobs: 1, QueueDepth: 1})
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "small", Points: testPoints(60, 2, 31)},
		http.StatusCreated, nil)
	unpin := pinSlot(t, s)
	defer unpin()

	var waiting Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "small", K: 2}, http.StatusAccepted, &waiting)
	var e APIErrorBody
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "small", K: 2}, http.StatusServiceUnavailable, &e)
	if e.Code != CodeQueueFull {
		t.Fatalf("second submission: code %q, want %q", e.Code, CodeQueueFull)
	}
	var list struct{ Jobs []Job }
	a.do("GET", "/v1/jobs", nil, http.StatusOK, &list)
	if len(list.Jobs) != 2 || list.Jobs[1].Status != StatusFailed {
		t.Fatalf("jobs after the refusal: %+v, want the refused one listed as failed", list.Jobs)
	}
	if got := s.counters.jobsRejected.Load(); got != 1 {
		t.Fatalf("jobsRejected = %d, want 1", got)
	}

	unpin()
	if j := waitJob(t, a, waiting.ID); j.Status != StatusDone {
		t.Fatalf("waiting job: %+v", j)
	}
}

// TestSchedulerBoundsConcurrency: however many jobs wait, no more than
// MaxConcurrentJobs of them run at once. A job's [Started, Finished]
// interval lies inside the time it holds its slot, so no instant may lie
// inside more intervals than there are slots.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const slots, jobs = 2, 12
	s := New(Config{MaxConcurrentJobs: slots})
	defer s.Close()
	if _, err := s.Registry().RegisterTable("d", rowsToPoints(testPoints(400, 3, 32))); err != nil {
		t.Fatal(err)
	}
	type event struct {
		at    time.Time
		delta int
	}
	var events []event
	var ids []string
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(JobSpec{Dataset: "d", K: 3, T: 4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		j := waitServerJob(t, s, id)
		if j.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, j)
		}
		events = append(events, event{*j.Started, 1}, event{*j.Finished, -1})
	}
	sort.Slice(events, func(a, b int) bool {
		if !events[a].at.Equal(events[b].at) {
			return events[a].at.Before(events[b].at)
		}
		return events[a].delta < events[b].delta // a finish before a start at the same instant
	})
	running, peak := 0, 0
	for _, e := range events {
		running += e.delta
		peak = max(peak, running)
	}
	if peak > slots {
		t.Fatalf("%d jobs ran at once, bound is %d", peak, slots)
	}
}

// TestSchedulerRunsEverything: every job queued behind busy slots runs,
// and so does every warmup queued behind them.
func TestSchedulerRunsEverything(t *testing.T) {
	const jobs = 24
	s := New(Config{MaxConcurrentJobs: 2, QueueDepth: jobs})
	defer s.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := s.Registry().RegisterTable(name, rowsToPoints(testPoints(60, 2, 33))); err != nil {
			t.Fatal(err)
		}
	}
	unpinA, unpinB := pinSlot(t, s), pinSlot(t, s)
	var ids []string
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(JobSpec{Dataset: []string{"a", "b"}[i%2], K: 2, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	s.warmDataset("a")
	s.warmDataset("b")
	unpinA()
	unpinB()
	for _, id := range ids {
		if j := waitServerJob(t, s, id); j.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, j)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.WarmupStats().Done < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queued warmups never ran: %+v", s.WarmupStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedulerDoubleShutdown: a second Shutdown, concurrent or after the
// first, returns cleanly and fails no queued job twice.
func TestSchedulerDoubleShutdown(t *testing.T) {
	s := New(Config{MaxConcurrentJobs: 1, JournalDir: t.TempDir()})
	if _, err := s.Registry().RegisterTable("d", rowsToPoints(testPoints(60, 2, 34))); err != nil {
		t.Fatal(err)
	}
	unpin := pinSlot(t, s)
	j, err := s.Submit(JobSpec{Dataset: "d", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- s.Shutdown(context.Background()) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("shutdown %d: %v", i, err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("third shutdown: %v", err)
	}
	if got, _ := s.GetJob(j.ID); got.Status != StatusFailed || got.ErrorCode != CodeShuttingDown {
		t.Fatalf("queued job after the drains: %+v", got)
	}
	if got := s.counters.jobsFailed.Load(); got != 1 {
		t.Fatalf("jobsFailed = %d, want 1", got)
	}
	if _, err := s.Submit(JobSpec{Dataset: "d", K: 2}); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
}
