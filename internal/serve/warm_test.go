package serve

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/metric"
)

// mixturePoints are dim-8 points: a dimension metric.Memoizes pools shard
// caches for (the tests here are about those caches).
func mixturePoints(t *testing.T, n int, seed int64) []metric.Point {
	t.Helper()
	return gen.Mixture(gen.MixtureSpec{N: n, K: 3, Dim: 8, OutlierFrac: 0.05, Seed: seed}).Pts
}

func runJobOK(t *testing.T, s *Server, spec JobSpec) Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := waitServerJob(t, s, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	return done
}

// TestWarmupFillsCachesBeforeFirstJob registers with server-wide warmup
// enabled, waits for the background fill, and asserts the first job runs
// entirely on warm cells (zero new misses at the sites).
func TestWarmupFillsCachesBeforeFirstJob(t *testing.T) {
	s := New(Config{WarmOnRegister: true})
	defer s.Close()
	pts := mixturePoints(t, 360, 13)
	if _, err := s.Registry().RegisterTable("w", pts); err != nil {
		t.Fatal(err)
	}
	// The HTTP layer triggers warmup; the library Register does not, so
	// drive the same entry point the handler uses.
	s.warmDataset("w")

	deadline := time.Now().Add(10 * time.Second)
	for {
		ws := s.WarmupStats()
		if ws.Done >= 1 && ws.CellsDone >= ws.CellsTotal && ws.CellsTotal > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warmup never finished: %+v", ws)
		}
		time.Sleep(10 * time.Millisecond)
	}

	d, _ := s.Registry().Get("w")
	_, missesBefore := d.CacheStats()
	done := runJobOK(t, s, JobSpec{Dataset: "w", K: 3, T: 15, Objective: "median", Seed: 2})
	if done.Result.CacheHits == 0 {
		t.Fatal("post-warmup job hit no cache cells")
	}
	_, missesAfter := d.CacheStats()
	if missesAfter != missesBefore {
		t.Fatalf("post-warmup job computed %d distances at the sites; warmup should have filled them all",
			missesAfter-missesBefore)
	}
}

// TestLowDimensionTableRunsRaw: a table of a dimension metric.Memoizes
// declines pools no shard cache — its jobs solve on the raw points, its
// cache counters stay 0, a warmup finds nothing to prefill — and answers
// exactly what a one-shot run does.
func TestLowDimensionTableRunsRaw(t *testing.T) {
	s := New(Config{WarmOnRegister: true})
	defer s.Close()
	rows := testPoints(360, 3, 13)
	if _, err := s.Registry().RegisterTable("low", rowsToPoints(rows)); err != nil {
		t.Fatal(err)
	}
	s.warmDataset("low")
	deadline := time.Now().Add(10 * time.Second)
	for s.WarmupStats().Done < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("warmup never finished: %+v", s.WarmupStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ws := s.WarmupStats(); ws.CellsTotal != 0 || ws.CellsDone != 0 {
		t.Fatalf("warmup of a dim-2 table targeted %d cells and filled %d, want none", ws.CellsTotal, ws.CellsDone)
	}
	for _, objective := range []string{"median", "center"} {
		spec := JobSpec{Dataset: "low", K: 3, T: 15, Objective: objective, Seed: 2}
		done := runJobOK(t, s, spec)
		want := oneShot(t, rowsToPoints(rows), spec)
		assertCentersEqual(t, done.Result.Centers, want.Centers, objective+" on a raw table")
	}
	if n := s.Registry().Pool().Stats().Entries; n != 0 {
		t.Fatalf("pool holds %d caches for a dim-2 table", n)
	}
	d, _ := s.Registry().Get("low")
	if hits, misses := d.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("dim-2 table counted %d hits and %d misses; nothing should be memoized", hits, misses)
	}
}

// TestWarmupPreemptedByDrain: a shutdown racing a warmup must preempt the
// fill instead of waiting behind the full O(n^2) metric.
func TestWarmupPreemptedByDrain(t *testing.T) {
	s := New(Config{})
	pts := mixturePoints(t, 512, 17)
	if _, err := s.Registry().RegisterTable("big", pts); err != nil {
		t.Fatal(err)
	}
	s.warmDataset("big")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain waited %v behind a warmup; preemption is broken", elapsed)
	}
}

// TestWarmupWaitsBehindJobs: a warmup never takes a job's place. With
// the one slot busy and QueueDepth 1, a queued warmup leaves room for the
// next submission, and the warmup starts only once that job has run.
func TestWarmupWaitsBehindJobs(t *testing.T) {
	s := New(Config{MaxConcurrentJobs: 1, QueueDepth: 1})
	defer s.Close()
	if _, err := s.Registry().RegisterTable("w", mixturePoints(t, 240, 19)); err != nil {
		t.Fatal(err)
	}
	unpin := pinSlot(t, s)
	defer unpin()
	s.warmDataset("w")
	j, err := s.Submit(JobSpec{Dataset: "w", K: 3, T: 6, Seed: 1})
	if err != nil {
		t.Fatalf("submission behind a queued warmup: %v", err)
	}
	unpin()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws := s.WarmupStats()
		job, err := s.GetJob(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Started > 0 && job.Status != StatusDone {
			t.Fatalf("warmup started while the job was %s", job.Status)
		}
		if ws.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warmup never ran: %+v, job %s", ws, job.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayWarmsTables: with WarmOnRegister set, a server that comes up on
// a journal warms every replayed table in the background — after a crash
// (unsealed journal) as after a clean shutdown — so the first job of the
// new life computes no distance at the sites. Without the option no warmup
// is scheduled.
func TestReplayWarmsTables(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, WarmOnRegister: true}
	spec := JobSpec{Dataset: "w", K: 3, T: 15, Objective: "median", Seed: 2}

	a, s1 := newAPI(t, cfg)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "w", Points: testPointsDim(360, 3, 8, 13)}, http.StatusCreated, nil)
	first := runJobOK(t, s1, spec)
	// The crash: drain the pool but leave the journal unsealed.
	s1.sealOnce.Do(func() {})
	s1.Close()

	for _, life := range []struct {
		name   string
		sealed bool
	}{{"after a crash", false}, {"after a clean shutdown", true}} {
		s := New(cfg)
		if rec := s.Recovery(); rec.Sealed != life.sealed || rec.Datasets != 1 {
			s.Close()
			t.Fatalf("%s: recovery %+v, want sealed=%v and 1 dataset", life.name, rec, life.sealed)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.WarmupStats().Done < 1 {
			if time.Now().After(deadline) {
				s.Close()
				t.Fatalf("%s: replay scheduled no warmup: %+v", life.name, s.WarmupStats())
			}
			time.Sleep(5 * time.Millisecond)
		}
		d, _ := s.Registry().Get("w")
		_, before := d.CacheStats()
		done := runJobOK(t, s, spec)
		_, after := d.CacheStats()
		s.Close() // seals: the next life replays a cleanly shut journal
		if done.Result.CacheHits == 0 || after != before {
			t.Fatalf("%s: first job had %d hits and computed %d distances at the sites; the replay warmup should have filled them all",
				life.name, done.Result.CacheHits, after-before)
		}
		if !reflect.DeepEqual(done.Result.Centers, first.Result.Centers) {
			t.Fatalf("%s: centers moved across the restart", life.name)
		}
	}

	cold := New(Config{JournalDir: dir})
	defer cold.Close()
	// The pool is FIFO: a warmup submitted during replay would have
	// started before this job finished.
	runJobOK(t, cold, spec)
	if ws := cold.WarmupStats(); ws.Started != 0 || ws.Skipped != 0 {
		t.Fatalf("WarmOnRegister is off, yet replay scheduled a warmup: %+v", ws)
	}
}

// TestStaleVersionCachesNotPooled: a job or warmup that snapshotted a table
// before an append (or a delete) and asks for its shard caches after that
// reclaim gets working caches, but must not leave them in the pool under
// the dead version's keys (no later append reclaims them; only LRU
// pressure would).
func TestStaleVersionCachesNotPooled(t *testing.T) {
	r := NewRegistry(0)
	d, err := r.RegisterTable("x", mixturePoints(t, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	view, v1 := d.snapshotTable()
	if _, err := r.Append("x", mixturePoints(t, 40, 4)); err != nil {
		t.Fatal(err)
	}
	for i, dc := range r.shardCaches(d, v1, dataio.SplitRoundRobin(view.Flatten(), DefaultJobSites)) {
		if dc == nil || dc.N() == 0 {
			t.Fatalf("shard %d of the snapshotted version got no cache", i)
		}
	}
	if _, err := r.Append("x", mixturePoints(t, 40, 5)); err != nil {
		t.Fatal(err)
	}
	dead := shardVersionPrefix("x", v1)
	for _, e := range r.Pool().Entries() {
		if strings.HasPrefix(e.Key, dead) {
			t.Fatalf("pool still holds %q (%d bytes) under a version two appends old", e.Key, e.DC.Bytes())
		}
	}

	view, v3 := d.snapshotTable()
	if err := r.Delete("x"); err != nil {
		t.Fatal(err)
	}
	r.shardCaches(d, v3, dataio.SplitRoundRobin(view.Flatten(), DefaultJobSites))
	if n := r.Pool().Stats().Entries; n != 0 {
		t.Fatalf("pool holds %d caches of a deleted dataset", n)
	}
}
