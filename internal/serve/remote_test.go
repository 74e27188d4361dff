package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/jobwire"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

// startPersistentSites replicates `dpc-site` in-process: each site
// dials the server's site listener, verifies the multi-job marker, builds
// one shared distance cache over its shard for the life of the connection,
// and serves a fresh core handler per job frame.
func startPersistentSites(t *testing.T, addr string, shards [][]metric.Point) func() []error {
	t.Helper()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := transport.Dial(addr, i, 10*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer sc.Close()
			if string(sc.Hello()) != transport.JobsHello {
				errs[i] = fmt.Errorf("welcome %q, want jobs marker", sc.Hello())
				return
			}
			cache := metric.NewDistCache(metric.NewPoints(shards[i]))
			errs[i] = sc.ServeJobs(jobwire.Factory(jobwire.SiteData{
				Site: i, Pts: shards[i], Cache: cache,
			}))
		}(i)
	}
	return func() []error { wg.Wait(); return errs }
}

// TestRemoteDatasetJobs runs the full server path against live TCP site
// daemons: persistent connections, several jobs over one socket set, and
// results identical to the in-process loopback simulation of the same
// shards.
func TestRemoteDatasetJobs(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 360, K: 3, OutlierFrac: 0.04, Seed: 61})
	const sites = 3
	shards := dataio.SplitRoundRobin(in.Pts, sites)

	s := New(Config{})
	defer s.Close()

	l, err := transport.Listen("127.0.0.1:0", sites)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	join := startPersistentSites(t, l.Addr().String(), shards)
	if _, err := s.RegisterRemoteListener("remote", l, sites); err != nil {
		t.Fatalf("RegisterRemoteListener: %v", err)
	}

	spec := JobSpec{Dataset: "remote", K: 3, T: 15, Objective: "median", Seed: 5}
	want, err := core.Run(shards, core.Config{
		K: 3, T: 15, Objective: core.Median, LocalOpts: kmedian.Options{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Three jobs over the same persistent connections.
	for n := 0; n < 3; n++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit remote job %d: %v", n, err)
		}
		done := waitServerJob(t, s, j.ID)
		if done.Status != StatusDone {
			t.Fatalf("remote job %d failed: %s", n, done.Error)
		}
		assertCentersEqual(t, done.Result.Centers, want.Centers, fmt.Sprintf("remote job %d", n))
		if done.Result.UpBytes != want.Report.UpBytes {
			t.Fatalf("remote job %d up bytes %d, loopback %d", n, done.Result.UpBytes, want.Report.UpBytes)
		}
		if done.Result.Transport != string(transport.KindTCP) {
			t.Fatalf("remote job reported transport %q", done.Result.Transport)
		}
	}

	// A center job over the same live sites (config changes per job frame).
	cwant, err := core.Run(shards, core.Config{
		K: 3, T: 15, Objective: core.Center, LocalOpts: kmedian.Options{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(JobSpec{Dataset: "remote", K: 3, T: 15, Objective: "center", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := waitServerJob(t, s, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("remote center job failed: %s", done.Error)
	}
	assertCentersEqual(t, done.Result.Centers, cwant.Centers, "remote center job")

	// Remote datasets cannot be deleted over the API, and appends route to
	// the sites, not the server.
	if err := s.Registry().Delete("remote"); err == nil {
		t.Fatalf("remote dataset deleted over the API")
	}
	if _, err := s.Registry().Append("remote", shards[0][:1]); err == nil {
		t.Fatalf("append to a remote dataset succeeded")
	}

	// Orderly shutdown: the registry's coordinator closes with the remote
	// sites still healthy.
	d, err := s.Registry().Get("remote")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CloseRemote(); err != nil {
		t.Fatalf("closing remote transport: %v", err)
	}
	for i, err := range join() {
		if err != nil {
			t.Fatalf("site %d exited with error: %v", i, err)
		}
	}
}
