package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startJobSites brings up `n` persistent sites over real localhost TCP,
// each serving with ServeJobs through `factory`, and returns the connected
// coordinator plus a join func for the site goroutines.
func startJobSites(t *testing.T, n int, factory func(site int) func(job int, blob []byte) (Handler, error)) (*Coordinator, func() []error) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", n)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	addr := l.Addr().String()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			site, err := Dial(addr, i, 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer site.Close()
			errs[i] = site.ServeJobs(factory(i))
		}(i)
	}
	coord, err := l.Accept(n, []byte(JobsHello))
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return coord, func() []error { wg.Wait(); return errs }
}

func TestServeJobsRunsManyJobsOverOneConnection(t *testing.T) {
	const sites, jobs = 3, 4
	type seen struct {
		mu    sync.Mutex
		blobs []string
	}
	perSite := make([]seen, sites)

	coord, join := startJobSites(t, sites, func(site int) func(int, []byte) (Handler, error) {
		return func(job int, blob []byte) (Handler, error) {
			perSite[site].mu.Lock()
			perSite[site].blobs = append(perSite[site].blobs, string(blob))
			perSite[site].mu.Unlock()
			return func(round int, in []byte) ([]byte, error) {
				return []byte(fmt.Sprintf("s%d j%d r%d got %q", site, job, round, in)), nil
			}, nil
		}
	})

	for j := 0; j < jobs; j++ {
		if err := coord.StartJob([]byte(fmt.Sprintf("config-%d", j))); err != nil {
			t.Fatalf("StartJob %d: %v", j, err)
		}
		// Two rounds per job, restarting at 0 each time.
		for round := 0; round < 2; round++ {
			if err := coord.Broadcast(round, []byte(fmt.Sprintf("down-%d-%d", j, round))); err != nil {
				t.Fatalf("broadcast: %v", err)
			}
			res, err := coord.Gather(context.Background(), round)
			if err != nil {
				t.Fatalf("gather job %d round %d: %v", j, round, err)
			}
			for i, p := range res.Payloads {
				want := fmt.Sprintf("s%d j%d r%d got %q", i, j, round, fmt.Sprintf("down-%d-%d", j, round))
				if string(p) != want {
					t.Fatalf("site %d replied %q, want %q", i, p, want)
				}
			}
		}
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, err := range join() {
		if err != nil {
			t.Fatalf("site %d exited with %v", i, err)
		}
	}
	for i := range perSite {
		if len(perSite[i].blobs) != jobs {
			t.Fatalf("site %d saw %d job frames, want %d", i, len(perSite[i].blobs), jobs)
		}
		for j, b := range perSite[i].blobs {
			if want := fmt.Sprintf("config-%d", j); b != want {
				t.Fatalf("site %d job %d blob %q, want %q", i, j, b, want)
			}
		}
	}
}

func TestServeJobsStatePersistsAcrossJobs(t *testing.T) {
	// The factory closure is the site daemon's warm state: this counter
	// survives every job boundary like a dataset/distance cache would.
	coord, join := startJobSites(t, 1, func(site int) func(int, []byte) (Handler, error) {
		handled := 0
		return func(job int, blob []byte) (Handler, error) {
			return func(round int, in []byte) ([]byte, error) {
				handled++
				return []byte(fmt.Sprintf("%d", handled)), nil
			}, nil
		}
	})
	var got []string
	for j := 0; j < 3; j++ {
		if err := coord.StartJob(nil); err != nil {
			t.Fatalf("StartJob: %v", err)
		}
		res, err := coord.Gather(context.Background(), 0)
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		got = append(got, string(res.Payloads[0]))
	}
	coord.Close()
	join()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("cross-job state = %v, want [1 2 3]", got)
	}
}

func TestServeJobsFactoryErrorReachesCoordinator(t *testing.T) {
	coord, join := startJobSites(t, 1, func(site int) func(int, []byte) (Handler, error) {
		return func(job int, blob []byte) (Handler, error) {
			return nil, fmt.Errorf("bad job blob")
		}
	})
	if err := coord.StartJob([]byte("x")); err != nil {
		t.Fatalf("StartJob: %v", err)
	}
	if _, err := coord.Gather(context.Background(), 0); err == nil {
		t.Fatalf("gather succeeded after factory error")
	}
	coord.Close()
	errs := join()
	if errs[0] == nil {
		t.Fatalf("site ServeJobs returned nil after factory error")
	}
}

func TestServeRejectsJobFrames(t *testing.T) {
	// A plain Serve loop (NewLocalTCP's in-process site) that is handed a
	// job frame must fail loudly, not hang.
	l, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	addr := l.Addr().String()
	serveErr := make(chan error, 1)
	go func() {
		site, err := Dial(addr, 0, 5*time.Second)
		if err != nil {
			serveErr <- err
			return
		}
		defer site.Close()
		serveErr <- site.Serve(func(round int, in []byte) ([]byte, error) { return nil, nil })
	}()
	coord, err := l.Accept(1, nil)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer coord.Close()
	if err := coord.StartJob([]byte("cfg")); err != nil {
		t.Fatalf("StartJob: %v", err)
	}
	// The job frame leaves with round 0's data frame, as under every
	// caller; the site drops the connection instead of replying.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := coord.Gather(ctx, 0); err == nil {
		t.Fatalf("gather succeeded after a job frame to a Serve loop")
	}
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatalf("Serve accepted a job frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Serve hung on a job frame")
	}
}

func TestServeJobsDataBeforeJobFails(t *testing.T) {
	coord, join := startJobSites(t, 1, func(site int) func(int, []byte) (Handler, error) {
		return func(job int, blob []byte) (Handler, error) {
			return func(round int, in []byte) ([]byte, error) { return nil, nil }, nil
		}
	})
	// Data with no preceding job frame: the site reports an error frame.
	if err := coord.Broadcast(0, []byte("early")); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if _, err := coord.Gather(context.Background(), 0); err == nil {
		t.Fatalf("gather succeeded with no job armed")
	}
	coord.Close()
	errs := join()
	if errs[0] == nil {
		t.Fatalf("site accepted data before any job")
	}
}

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeJobSites connects n ServeJobs sites to a coordinator over net.Pipe,
// the coordinator's ends counting their writes. Each site records the job
// blobs its factory saw; join waits for the sites and returns what each
// ServeJobs returned.
func pipeJobSites(t *testing.T, n int) (coord *Coordinator, ends []*countingConn, blobs [][]string, join func() []error) {
	t.Helper()
	conns := make([]net.Conn, n)
	ends = make([]*countingConn, n)
	blobs = make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range conns {
		cEnd, sEnd := net.Pipe()
		ends[i] = &countingConn{Conn: cEnd}
		conns[i] = ends[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			site, err := NewSite(sEnd, i)
			if err != nil {
				errs[i] = err
				return
			}
			defer site.Close()
			errs[i] = site.ServeJobs(func(job int, blob []byte) (Handler, error) {
				blobs[i] = append(blobs[i], string(blob))
				return func(round int, in []byte) ([]byte, error) { return []byte("ok"), nil }, nil
			})
		}(i)
	}
	coord, err := NewCoordinator(conns, []byte(JobsHello))
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	for _, e := range ends {
		e.writes.Store(0) // the welcome frame's write
	}
	return coord, ends, blobs, func() []error { wg.Wait(); return errs }
}

// TestStartJobLeavesWithRoundZero pins where StartJob's job frame goes on
// the wire: into the write that carries round 0's data frame, one Write a
// connection for both, and, when no round follows, into Close's write,
// ahead of the close frame.
func TestStartJobLeavesWithRoundZero(t *testing.T) {
	const sites = 3
	t.Run("round0", func(t *testing.T) {
		coord, ends, blobs, join := pipeJobSites(t, sites)
		if err := coord.StartJob([]byte("cfg")); err != nil {
			t.Fatalf("StartJob: %v", err)
		}
		res, err := coord.Gather(context.Background(), 0)
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		for i, e := range ends {
			if n := e.writes.Load(); n != 1 {
				t.Errorf("site %d: StartJob and round 0 made %d writes, want 1", i, n)
			}
			if string(res.Payloads[i]) != "ok" {
				t.Errorf("site %d replied %q", i, res.Payloads[i])
			}
		}
		coord.Close()
		for i, err := range join() {
			if err != nil || len(blobs[i]) != 1 || blobs[i][0] != "cfg" {
				t.Errorf("site %d: ServeJobs %v, job blobs %q", i, err, blobs[i])
			}
		}
	})
	t.Run("close", func(t *testing.T) {
		coord, ends, blobs, join := pipeJobSites(t, sites)
		if err := coord.StartJob([]byte("cfg")); err != nil {
			t.Fatalf("StartJob: %v", err)
		}
		if err := coord.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// ServeJobs returns nil only on the close frame, and the factory
		// saw the job frame before it.
		for i, err := range join() {
			if err != nil || len(blobs[i]) != 1 || blobs[i][0] != "cfg" {
				t.Errorf("site %d: ServeJobs %v, job blobs %q", i, err, blobs[i])
			}
			if n := ends[i].writes.Load(); n != 1 {
				t.Errorf("site %d: StartJob and Close made %d writes, want 1", i, n)
			}
		}
	})
}
