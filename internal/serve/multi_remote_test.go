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

// startSiteGroup boots persistent in-process site daemons for one group,
// with globally unique site ids starting at idBase (the multi-group
// numbering contract: per-site solver seeds derive from the id, so parity
// with a single-fleet run requires global uniqueness).
func startSiteGroup(t *testing.T, addr string, shards [][]metric.Point, idBase int) func() []error {
	t.Helper()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := transport.Dial(addr, idBase+i, 10*time.Second)
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
				Site: idBase + i, Pts: shards[i], Cache: cache,
			}))
		}(i)
	}
	return func() []error { wg.Wait(); return errs }
}

// TestRemoteDatasetSpansSiteGroups registers a remote dataset over one
// site group, attaches a second group, and asserts jobs fan out over both
// fleets with results byte-identical to a loopback run over the union of
// the shards.
func TestRemoteDatasetSpansSiteGroups(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 320, K: 3, OutlierFrac: 0.05, Seed: 77})
	allShards := dataio.SplitRoundRobin(in.Pts, 4)
	groupA, groupB := allShards[:2], allShards[2:]

	s := New(Config{})
	defer s.Close()

	lA, err := transport.Listen("127.0.0.1:0", len(groupA))
	if err != nil {
		t.Fatal(err)
	}
	defer lA.Close()
	joinA := startSiteGroup(t, lA.Addr().String(), groupA, 0)
	if _, err := s.RegisterRemote("spanning", lA, len(groupA)); err != nil {
		t.Fatalf("RegisterRemote: %v", err)
	}

	lB, err := transport.Listen("127.0.0.1:0", len(groupB))
	if err != nil {
		t.Fatal(err)
	}
	defer lB.Close()
	joinB := startSiteGroup(t, lB.Addr().String(), groupB, len(groupA))
	// A group whose ids the accept refuses would wait forever: bound it.
	bound := time.AfterFunc(10*time.Second, func() { lB.Close() })
	defer bound.Stop()
	if err := s.AddRemoteGroup("spanning", lB, len(groupB)); err != nil {
		t.Fatalf("AddRemoteGroup: %v", err)
	}

	d, err := s.Registry().Get("spanning")
	if err != nil {
		t.Fatal(err)
	}
	info := d.Info()
	if info.Sites != 4 || info.Groups != 2 {
		t.Fatalf("info reports %d sites in %d groups, want 4 in 2", info.Sites, info.Groups)
	}

	want, err := core.Run(allShards, core.Config{
		K: 3, T: 12, Objective: core.Median, LocalOpts: kmedian.Options{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		j, err := s.Submit(JobSpec{Dataset: "spanning", K: 3, T: 12, Objective: "median", Seed: 9})
		if err != nil {
			t.Fatalf("submit job %d: %v", n, err)
		}
		done := waitServerJob(t, s, j.ID)
		if done.Status != StatusDone {
			t.Fatalf("job %d failed: %s", n, done.Error)
		}
		assertCentersEqual(t, done.Result.Centers, want.Centers, fmt.Sprintf("multi-group job %d", n))
		if done.Result.UpBytes != want.Report.UpBytes {
			t.Fatalf("job %d up bytes %d, loopback %d", n, done.Result.UpBytes, want.Report.UpBytes)
		}
	}

	if err := d.CloseRemote(); err != nil {
		t.Fatalf("closing spanning transport: %v", err)
	}
	for g, join := range []func() []error{joinA, joinB} {
		for i, err := range join() {
			if err != nil {
				t.Fatalf("group %d site %d exited with error: %v", g, i, err)
			}
		}
	}
}
