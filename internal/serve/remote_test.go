package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
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
	if _, err := s.RegisterRemote("remote", l, sites); err != nil {
		t.Fatalf("RegisterRemote: %v", err)
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

// roundGate blocks every site's round 0 while armed, until released.
type roundGate struct {
	armed   atomic.Bool
	entered chan struct{} // one send per blocked site
	release chan struct{}
}

func (g *roundGate) wrap(_ int, _ []byte, h transport.Handler) transport.Handler {
	return func(round int, in []byte) ([]byte, error) {
		if round == 0 && g.armed.Load() {
			g.entered <- struct{}{}
			<-g.release
		}
		return h(round, in)
	}
}

// startRedialSites runs dpc-site's loop (transport.Redial) in-process for
// one site group: each site dials with its global id idBase+i, retrying
// for dial, serves jobs through gate, and dials again when its connection
// drops without the coordinator's clean close. A clean close ends a site
// and counts in closes.
func startRedialSites(t *testing.T, addr string, shards [][]metric.Point, idBase int, dial time.Duration, gate *roundGate, closes *atomic.Int32) func() []error {
	t.Helper()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := jobwire.SiteData{Site: idBase + i, Pts: shards[i], Cache: metric.NewDistCache(metric.NewPoints(shards[i]))}
			errs[i] = transport.Redial(addr, d.Site, dial, func(sc *transport.Site) error {
				err := jobwire.ServeJobs(sc, d, gate.wrap)
				if err == nil {
					closes.Add(1)
				}
				return err
			})
		}(i)
	}
	return func() []error { wg.Wait(); return errs }
}

// TestRemoteDatasetSurvivesCancel cancels a job on a remote dataset while
// every site is inside round 0: the fleet drops the desynchronized
// connections without the protocol close, the redialing sites come back,
// and the next jobs answer exactly as a loopback run over the same shards
// — over one site group and over two. In the last row the sites give up
// dialing after 300 ms and the next job comes a second after the cancel:
// the fleet must have taken them back without waiting for a job.
func TestRemoteDatasetSurvivesCancel(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 360, K: 3, OutlierFrac: 0.04, Seed: 61})
	for _, tc := range []struct {
		name       string
		groups     []int
		dial, idle time.Duration // the sites' dial retry; the pause before the next job
	}{
		{"one group", []int{3}, 10 * time.Second, 0},
		{"two groups", []int{2, 2}, 10 * time.Second, 0},
		{"next job after the dial retry", []int{2, 2}, 300 * time.Millisecond, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sites := 0
			for _, n := range tc.groups {
				sites += n
			}
			shards := dataio.SplitRoundRobin(in.Pts, sites)
			s := New(Config{})
			defer s.Close()

			gate := &roundGate{entered: make(chan struct{}, sites), release: make(chan struct{})}
			var closes atomic.Int32
			var joins []func() []error
			base := 0
			for g, n := range tc.groups {
				l, err := transport.Listen("127.0.0.1:0", n)
				if err != nil {
					t.Fatal(err)
				}
				joins = append(joins, startRedialSites(t, l.Addr().String(), shards[base:base+n], base, tc.dial, gate, &closes))
				if g == 0 {
					_, err = s.RegisterRemote("rm", l, n)
				} else {
					err = s.AddRemoteGroup("rm", l, n)
				}
				if err != nil {
					t.Fatalf("group %d: %v", g, err)
				}
				base += n
			}

			spec := JobSpec{Dataset: "rm", K: 3, T: 15, Objective: "median", Seed: 5}
			want, err := core.Run(shards, core.Config{
				K: 3, T: 15, Objective: core.Median, LocalOpts: kmedian.Options{Seed: 5},
			})
			if err != nil {
				t.Fatal(err)
			}

			gate.armed.Store(true)
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sites; i++ {
				select {
				case <-gate.entered:
				case <-time.After(30 * time.Second):
					t.Fatalf("%d of %d sites reached round 0", i, sites)
				}
			}
			if _, err := s.CancelJob(j.ID); err != nil {
				t.Fatal(err)
			}
			if done := waitServerJob(t, s, j.ID); done.Status != StatusCanceled {
				t.Fatalf("cancelled job ended %s: %s", done.Status, done.Error)
			}
			gate.armed.Store(false)
			close(gate.release)
			time.Sleep(tc.idle)

			for n := 0; n < 2; n++ {
				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				done := waitServerJob(t, s, j.ID)
				if done.Status != StatusDone {
					t.Fatalf("job %d after the cancel failed: %s", n, done.Error)
				}
				assertCentersEqual(t, done.Result.Centers, want.Centers, fmt.Sprintf("job %d after the cancel", n))
			}
			if c := closes.Load(); c != 0 {
				t.Fatalf("%d sites took the protocol close before the dataset was closed", c)
			}

			d, err := s.Registry().Get("rm")
			if err != nil {
				t.Fatal(err)
			}
			if err := d.CloseRemote(); err != nil {
				t.Fatal(err)
			}
			for g, join := range joins {
				for i, err := range join() {
					if err != nil {
						t.Fatalf("group %d site %d exited with error: %v", g, i, err)
					}
				}
			}
			if c := closes.Load(); int(c) != sites {
				t.Fatalf("%d of %d sites ended on the protocol close", c, sites)
			}
		})
	}
}
