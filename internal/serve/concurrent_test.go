package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dpc/internal/gen"
	"dpc/internal/metric"
)

// waitServerJob polls the server directly (no HTTP) until the job settles.
func waitServerJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.GetJob(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCanceled {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

// TestConcurrentJobsShareOneCacheAndMatchSequential hammers one dataset
// with N concurrent submissions: every job must be served from the same
// per-shard caches (exactly `sites` pool builds — no duplicate caches under
// race) and return bit-identical results to a sequential run. Run under
// -race in CI, this is the concurrency acceptance test.
func TestConcurrentJobsShareOneCacheAndMatchSequential(t *testing.T) {
	const (
		goroutines = 8
		sites      = 4
	)
	in := gen.Mixture(gen.MixtureSpec{N: 400, K: 3, Dim: 8, OutlierFrac: 0.05, Seed: 41})

	// Sequential reference on a fresh server.
	seq := New(Config{MaxConcurrentJobs: 1})
	defer seq.Close()
	if _, err := seq.Registry().RegisterTable("ds", in.Pts); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Dataset: "ds", K: 3, T: 20, Sites: sites, Seed: 7}
	sj, err := seq.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	seqJob := waitServerJob(t, seq, sj.ID)
	if seqJob.Status != StatusDone {
		t.Fatalf("sequential job failed: %s", seqJob.Error)
	}

	// Concurrent run on another server: N goroutines, one shared dataset.
	con := New(Config{MaxConcurrentJobs: goroutines, QueueDepth: goroutines * 2})
	defer con.Close()
	if _, err := con.Registry().RegisterTable("ds", in.Pts); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j, err := con.Submit(spec)
			if err != nil {
				errs[g] = err
				return
			}
			ids[g] = j.ID
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d submit: %v", g, err)
		}
	}

	for g, id := range ids {
		j := waitServerJob(t, con, id)
		if j.Status != StatusDone {
			t.Fatalf("concurrent job %d failed: %s", g, j.Error)
		}
		// Bit-identical to the sequential run: same centers, same cost,
		// same wire bytes.
		if len(j.Result.Centers) != len(seqJob.Result.Centers) {
			t.Fatalf("job %d: %d centers, sequential found %d", g, len(j.Result.Centers), len(seqJob.Result.Centers))
		}
		for i := range j.Result.Centers {
			if !metric.Point(j.Result.Centers[i]).Equal(metric.Point(seqJob.Result.Centers[i])) {
				t.Fatalf("job %d center %d = %v, sequential %v", g, i, j.Result.Centers[i], seqJob.Result.Centers[i])
			}
		}
		if j.Result.Cost != seqJob.Result.Cost {
			t.Fatalf("job %d cost %v, sequential %v", g, j.Result.Cost, seqJob.Result.Cost)
		}
		if j.Result.UpBytes != seqJob.Result.UpBytes {
			t.Fatalf("job %d up bytes %d, sequential %d", g, j.Result.UpBytes, seqJob.Result.UpBytes)
		}
	}

	// The cache-stats assertion: all N jobs were served by exactly `sites`
	// shared caches — the pool deduplicated every racing Get.
	pool := con.Registry().Pool().Stats()
	if pool.Builds != sites {
		t.Fatalf("concurrent jobs built %d caches, want %d (one per shard)", pool.Builds, sites)
	}
	if pool.Hits < int64((goroutines-1)*sites) {
		t.Fatalf("pool hits %d, want >= %d (every later job reuses every shard cache)",
			pool.Hits, (goroutines-1)*sites)
	}
	d, err := con.Registry().Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := d.CacheStats()
	if hits == 0 {
		t.Fatalf("no shared-cache hits across %d concurrent jobs", goroutines)
	}
	// Misses are bounded by goroutines * cells (concurrent first readers of
	// one cell may each compute it — benign by design), but sharing must
	// keep them well under "every job fills its own cache".
	seqHits, seqMisses := func() (int64, int64) {
		sd, _ := seq.Registry().Get("ds")
		return sd.CacheStats()
	}()
	if misses >= seqMisses*int64(goroutines) {
		t.Fatalf("misses %d suggest per-job private caches (sequential job: %d misses)", misses, seqMisses)
	}
	_ = seqHits
	if hits+misses < seqHits+seqMisses {
		t.Fatalf("total traffic %d below a single job's %d: stats missing", hits+misses, seqHits+seqMisses)
	}
}

// TestManyDatasetsConcurrently exercises the scheduler across datasets:
// jobs against different datasets run independently and each dataset keeps
// its own cache accounting.
func TestManyDatasetsConcurrently(t *testing.T) {
	s := New(Config{MaxConcurrentJobs: 4})
	defer s.Close()
	const datasets = 5
	for d := 0; d < datasets; d++ {
		in := gen.Mixture(gen.MixtureSpec{N: 150 + 30*d, K: 2, Dim: 8, OutlierFrac: 0.02, Seed: int64(50 + d)})
		if _, err := s.Registry().RegisterTable(fmt.Sprintf("ds%d", d), in.Pts); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, datasets*3)
	for i := range ids {
		j, err := s.Submit(JobSpec{Dataset: fmt.Sprintf("ds%d", i%datasets), K: 2, T: 8, Sites: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	for _, id := range ids {
		if j := waitServerJob(t, s, id); j.Status != StatusDone {
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
	}
	if pool := s.Registry().Pool().Stats(); pool.Builds != datasets*2 {
		t.Fatalf("pool built %d caches, want %d (2 shards x %d datasets)", pool.Builds, datasets*2, datasets)
	}
}
