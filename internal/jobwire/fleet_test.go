package jobwire

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// siteLoops runs dpc-site's loop (transport.Redial) in-process, one
// goroutine per shard: site base+i dials addr, serves jobs, and after a
// connection drop dials again while again(i) says so (nil: always). A
// clean protocol close ends a site.
type siteLoops struct {
	dials []atomic.Int32
	errs  []error // each site's dial error, or nil
	wg    sync.WaitGroup
}

func startSites(addr string, shards [][]metric.Point, base int, again func(i int) bool) *siteLoops {
	s := &siteLoops{dials: make([]atomic.Int32, len(shards)), errs: make([]error, len(shards))}
	for i := range shards {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			s.errs[i] = transport.Redial(addr, base+i, 10*time.Second, func(sc *transport.Site) error {
				s.dials[i].Add(1)
				err := ServeJobs(sc, SiteData{Site: base + i, Pts: shards[i]}, nil)
				if err != nil && again != nil && !again(i) {
					return nil // done redialing
				}
				return err
			})
		}(i)
	}
	return s
}

// wait waits for every site to end and fails t for each dial error.
func (s *siteLoops) wait(t *testing.T) {
	t.Helper()
	s.wg.Wait()
	for i, err := range s.errs {
		if err != nil {
			t.Errorf("site %d: %v", i, err)
		}
	}
}

func fleetJob() Job {
	return Job{Kind: KindPoint, Core: core.Config{K: 3, T: 10, Objective: core.Median, LocalOpts: kmedian.Options{Seed: 3}}}
}

// abortFleet runs a job whose context is already cancelled, which leaves
// the fleet aborted and re-accepting.
func abortFleet(t *testing.T, f *Fleet) {
	t.Helper()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Run(cancelled, fleetJob(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run: %v, want context.Canceled", err)
	}
}

// assertRun runs fleetJob on f within 10 s and compares its centers with
// core.Run over shards.
func assertRun(t *testing.T, f *Fleet, shards [][]metric.Point) {
	t.Helper()
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	got, err := f.Run(ctx, fleetJob(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := core.Run(shards, fleetJob().Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("%d centers, want %d", len(got.Centers), len(want.Centers))
	}
	for i := range want.Centers {
		if !got.Centers[i].Equal(want.Centers[i]) {
			t.Fatalf("center %d = %v, want %v", i, got.Centers[i], want.Centers[i])
		}
	}
}

func fleetShards(sites int) [][]metric.Point {
	in := gen.Mixture(gen.MixtureSpec{N: 200, K: 3, OutlierFrac: 0.05, Seed: 5})
	return dataio.SplitRoundRobin(in.Pts, sites)
}

func acceptFleet(t *testing.T, shards [][]metric.Point, again func(i int) bool) (*Fleet, *siteLoops) {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0", len(shards))
	if err != nil {
		t.Fatal(err)
	}
	sites := startSites(l.Addr().String(), shards, 0, again)
	f, err := AcceptFleet(l, len(shards), len(shards), 0)
	if err != nil {
		t.Fatal(err)
	}
	return f, sites
}

// TestFleetReconnectKeepsEarlyDaemons: a Run whose context ends while the
// fleet waits for its redialing daemons leaves the re-accept running, so
// the daemon that is back stays connected and the late one joins it. Site
// 1 redials only when released; site 0 redials at once, and only once.
func TestFleetReconnectKeepsEarlyDaemons(t *testing.T) {
	shards := fleetShards(2)
	release := make(chan struct{})
	f, sites := acceptFleet(t, shards, func(i int) bool {
		if i == 1 {
			<-release
		}
		return true
	})
	abortFleet(t, f)

	// Site 0 rejoins, site 1 stays away, and the wait gives up.
	short, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.Run(short, fleetJob(), nil)
		done <- err
	}()
	for sites.dials[0].Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("reconnect with site 1 away: %v, want context.Canceled", err)
	}

	close(release)
	assertRun(t, f, shards)
	if d := sites.dials[0].Load(); d != 2 {
		t.Fatalf("site 0 dialed %d times, want 2: the given-up wait dropped it", d)
	}
	if f.Sites() != 2 || f.Groups() != 1 {
		t.Fatalf("Sites() = %d, Groups() = %d, want 2 and 1", f.Sites(), f.Groups())
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sites.wait(t)
	if _, err := f.Run(context.Background(), fleetJob(), nil); err == nil {
		t.Fatalf("Run on a closed fleet succeeded")
	}
}

// TestFleetCloseWhileReconnecting: Close ends a Run that waits, without a
// deadline, for a daemon that never returns, and the daemon that did
// return gets the protocol close.
func TestFleetCloseWhileReconnecting(t *testing.T) {
	shards := fleetShards(2)
	f, sites := acceptFleet(t, shards, func(i int) bool { return i == 0 })
	abortFleet(t, f)
	done := make(chan error, 1)
	go func() {
		_, err := f.Run(context.Background(), fleetJob(), nil)
		done <- err
	}()
	for sites.dials[0].Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("Run over a fleet missing a site succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Close did not end the waiting Run")
	}
	sites.wait(t) // site 0 ended on the protocol close, not a dial error
}

// TestFleetAddGroupKeepsRunning: jobs keep running on the existing group
// while AddGroup waits for a new group's daemons, which dial with the ids
// that continue the fleet's. The group arrives while the fleet reconnects
// after a cancel, and the next job spans both groups.
func TestFleetAddGroupKeepsRunning(t *testing.T) {
	shards := fleetShards(4)
	f, groupA := acceptFleet(t, shards[:2], nil)
	lB, err := transport.Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	added := make(chan error, 1)
	go func() { added <- f.AddGroup(lB, 2) }()
	// A daemon with a group-local id is refused, which also shows the
	// accept is under way.
	if _, err := transport.Dial(lB.Addr().String(), 0, 10*time.Second); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("site 0 dialing the second group: %v, want out of range", err)
	}

	assertRun(t, f, shards[:2])
	abortFleet(t, f)
	groupB := startSites(lB.Addr().String(), shards[2:], 2, nil)
	if err := <-added; err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	if f.Sites() != 4 || f.Groups() != 2 {
		t.Fatalf("Sites() = %d, Groups() = %d, want 4 and 2", f.Sites(), f.Groups())
	}
	assertRun(t, f, shards)

	abortFleet(t, f)
	assertRun(t, f, shards)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	groupA.wait(t)
	groupB.wait(t)
}

// TestFleetRejectedJobReconnects: a job every site rejects — an uncertain
// job on point-only sites, refused at its job frame — ends each site's job
// loop with an error frame. The fleet drops the connections as it does
// after a cancel, the redialing sites come back, and the next jobs run.
func TestFleetRejectedJobReconnects(t *testing.T) {
	shards := fleetShards(3)
	f, sites := acceptFleet(t, shards, nil)
	g := &uncertain.Ground{Pts: []metric.Point{{0, 0}, {1, 0}, {0, 1}}}
	rejected := Job{Kind: KindUncertain, Obj: uncertain.Median, Unc: uncertain.Config{K: 1, T: 1}}
	if _, err := f.Run(context.Background(), rejected, g); err == nil {
		t.Fatal("uncertain job on point-only sites succeeded")
	}
	assertRun(t, f, shards)
	assertRun(t, f, shards)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sites.wait(t)
}
