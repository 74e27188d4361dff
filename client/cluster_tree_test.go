package client

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/jobwire"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// loops runs daemon loops in goroutines and keeps what each returns.
type loops struct {
	wg    sync.WaitGroup
	errs  []*error
	ended atomic.Int32 // loops that have returned
}

func (l *loops) start(loop func() error) {
	err := new(error)
	l.errs = append(l.errs, err)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		*err = loop()
		l.ended.Add(1)
	}()
}

// join waits for every loop and returns their errors in start order.
func (l *loops) join() []error {
	l.wg.Wait()
	errs := make([]error, len(l.errs))
	for i, err := range l.errs {
		errs[i] = *err
	}
	return errs
}

// startAggregatorTree runs the aggregator tiers of a ListenClusterTree
// fleet of `sites` leaves in-process, each aggregator on tree.ServeLoop —
// dpc-site -aggregate's loop — with its own child listener, ids and child
// bases as tree.Tiers and tree.Groups plan them. It returns the bottom
// tier's listen addresses (leaf i dials the one at i/branch) and the
// aggregators' loops.
func startAggregatorTree(t testing.TB, parent string, sites, branch int) ([]string, *loops) {
	t.Helper()
	aggs := &loops{}
	tiers := tree.Tiers(sites, branch)
	var up []string // the addresses of the tier above: the root's first
	for k := len(tiers) - 1; k >= 0; k-- {
		below := sites
		if k > 0 {
			below = tiers[k-1]
		}
		addrs := make([]string, tiers[k])
		for j, children := range tree.Groups(below, branch) {
			l, err := transport.Listen("127.0.0.1:0", children)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			addrs[j] = l.Addr().String()
			dial := parent
			if up != nil {
				dial = up[j/branch]
			}
			aggs.start(func() error {
				return tree.ServeLoop(l, dial, j, children, j*branch, k > 0, 10*time.Second, nil)
			})
		}
		up = addrs
	}
	return up, aggs
}

// TestListenClusterTree runs a real depth-2 aggregation-tree cluster —
// leaf ServeSite fleets dialing in-process dpc-site -aggregate loops
// dialing a ListenClusterTree backend — and asserts the answers are
// byte-identical to the flat ListenCluster star over the same shards, with
// the tree's physical root inbox attributed per level.
func TestListenClusterTree(t *testing.T) {
	const sites, branch = 4, 2
	in := gen.Mixture(gen.MixtureSpec{N: 240, K: 3, OutlierFrac: 0.05, Seed: 21})
	shards := dataio.SplitRoundRobin(in.Pts, sites)
	reqs := []Request{
		{Objective: Median, K: 3, T: 12, Seed: 5, Points: in.Pts},
		{Objective: Center, K: 3, T: 12, Seed: 5, Points: in.Pts},
	}
	ctx := context.Background()

	// Star reference.
	star, starJoin := newCluster(t, shards, nil, nil)
	starResp := make([]*Response, len(reqs))
	for i, req := range reqs {
		r, err := star.Do(ctx, req)
		if err != nil {
			t.Fatalf("star %s: %v", req.Objective, err)
		}
		starResp[i] = r
	}
	star.Close()
	for i, err := range starJoin() {
		if err != nil {
			t.Errorf("star site %d: %v", i, err)
		}
	}

	// Tree cluster: coordinator <- 2 aggregators <- 4 leaf sites.
	cl, err := ListenClusterTree("127.0.0.1:0", sites, branch)
	if err != nil {
		t.Fatal(err)
	}
	aggAddrs, aggs := startAggregatorTree(t, cl.Addr(), sites, branch)
	var leafWG sync.WaitGroup
	leafErrs := make([]error, sites)
	for i := 0; i < sites; i++ {
		leafWG.Add(1)
		go func(i int) {
			defer leafWG.Done()
			leafErrs[i] = ServeSite(aggAddrs[i/branch], SiteData{Site: i, Points: shards[i]}, 10*time.Second)
		}(i)
	}
	cluster, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Sites() != sites {
		t.Fatalf("tree cluster Sites() = %d, want %d", cluster.Sites(), sites)
	}

	for i, req := range reqs {
		r, err := cluster.Do(ctx, req)
		if err != nil {
			t.Fatalf("tree %s: %v", req.Objective, err)
		}
		assertSameCenters(t, r.Centers, starResp[i].Centers, "tree vs star "+req.Objective)
		if r.Cost != starResp[i].Cost {
			t.Fatalf("%s: tree cost %g, star cost %g", req.Objective, r.Cost, starResp[i].Cost)
		}
		if r.UpBytes != starResp[i].UpBytes || r.DownBytes != starResp[i].DownBytes {
			t.Fatalf("%s: tree logical bytes (%d up, %d down) differ from star (%d up, %d down)",
				req.Objective, r.UpBytes, r.DownBytes, starResp[i].UpBytes, starResp[i].DownBytes)
		}
	}

	cluster.Close()
	leafWG.Wait()
	for i, err := range leafErrs {
		if err != nil {
			t.Errorf("leaf site %d: %v", i, err)
		}
	}
	for a, err := range aggs.join() {
		if err != nil {
			t.Errorf("aggregator %d: %v", a, err)
		}
	}
}

// TestListenClusterTreeDegenerate pins that sites <= branch degenerates to
// the flat star: leaf daemons dial the listener directly.
func TestListenClusterTreeDegenerate(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 120, K: 2, OutlierFrac: 0.05, Seed: 3})
	shards := dataio.SplitRoundRobin(in.Pts, 2)
	cl, err := ListenClusterTree("127.0.0.1:0", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ServeSite(cl.Addr(), SiteData{Site: i, Points: shards[i]}, 10*time.Second)
		}(i)
	}
	cluster, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Objective: Median, K: 2, T: 6, Seed: 9, Points: in.Pts}
	got, err := cluster.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewLocal().Do(context.Background(), Request{
		Objective: Median, K: 2, T: 6, Seed: 9, Sites: 2, Points: in.Pts,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCenters(t, got.Centers, want.Centers, "degenerate tree")
	cluster.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("site %d: %v", i, err)
		}
	}
}

// roundGate blocks every leaf's round 0 while armed, until released.
type roundGate struct {
	armed   atomic.Bool
	entered chan struct{} // one send per blocked leaf
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

// TestClusterTreeSurvivesCancel runs a tree fleet of library daemons over
// TCP — leaves on dpc-site's redial loop, aggregators on tree.ServeLoop —
// through the two ways a job fails: cancelled while every leaf is inside
// round 0, and rejected by every leaf at its job frame. Each costs the
// fleet one reconnect: the next two jobs answer with centers, cost and
// logical bytes byte-identical to a star over the same shards, no daemon
// takes the protocol close before Close, and after it every loop returns
// nil.
func TestClusterTreeSurvivesCancel(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 240, K: 3, OutlierFrac: 0.05, Seed: 21})
	reqs := []Request{
		{Objective: Median, K: 3, T: 12, Seed: 5, Points: in.Pts},
		{Objective: Center, K: 3, T: 12, Seed: 5, Points: in.Pts},
	}
	rejected := Request{Objective: UncertainMedian, K: 1, T: 1, Ground: &Ground{Pts: []Point{{0, 0}, {1, 0}, {0, 1}}}}
	for _, tc := range []struct {
		name          string
		sites, branch int
	}{
		{"depth 2", 4, 2},
		{"depth 3", 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := dataio.SplitRoundRobin(in.Pts, tc.sites)
			star, starJoin := newCluster(t, shards, nil, nil)
			want := make([]*Response, len(reqs))
			for i, req := range reqs {
				r, err := star.Do(context.Background(), req)
				if err != nil {
					t.Fatalf("star %s: %v", req.Objective, err)
				}
				want[i] = r
			}
			star.Close()
			starJoin()

			cl, err := ListenClusterTree("127.0.0.1:0", tc.sites, tc.branch)
			if err != nil {
				t.Fatal(err)
			}
			aggAddrs, daemons := startAggregatorTree(t, cl.Addr(), tc.sites, tc.branch)
			gate := &roundGate{entered: make(chan struct{}), release: make(chan struct{})}
			for i, shard := range shards {
				addr, d := aggAddrs[i/tc.branch], jobwire.SiteData{Site: i, Pts: shard}
				daemons.start(func() error {
					return transport.Redial(addr, i, 10*time.Second, func(sc *transport.Site) error {
						return jobwire.ServeJobs(sc, d, gate.wrap)
					})
				})
			}
			cluster, err := cl.Accept()
			if err != nil {
				t.Fatal(err)
			}

			gate.armed.Store(true)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := cluster.Do(ctx, reqs[0])
				done <- err
			}()
			for i := 0; i < tc.sites; i++ {
				select {
				case <-gate.entered:
				case <-time.After(30 * time.Second):
					t.Fatalf("%d of %d leaves reached round 0", i, tc.sites)
				}
			}
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Do: %v, want context.Canceled", err)
			}
			gate.armed.Store(false)
			close(gate.release)

			bounded, stop := context.WithTimeout(context.Background(), 30*time.Second)
			defer stop()
			if _, err := cluster.Do(bounded, rejected); err == nil {
				t.Fatal("an uncertain job on point-only leaves succeeded")
			}
			for i, req := range reqs {
				r, err := cluster.Do(bounded, req)
				if err != nil {
					t.Fatalf("%s after the cancel and the rejected job: %v", req.Objective, err)
				}
				assertSameCenters(t, r.Centers, want[i].Centers, "tree vs star "+req.Objective)
				if r.Cost != want[i].Cost || r.UpBytes != want[i].UpBytes || r.DownBytes != want[i].DownBytes {
					t.Fatalf("%s: tree cost %g, bytes %d up %d down; star %g, %d up %d down", req.Objective,
						r.Cost, r.UpBytes, r.DownBytes, want[i].Cost, want[i].UpBytes, want[i].DownBytes)
				}
			}
			if n := daemons.ended.Load(); n != 0 {
				t.Fatalf("%d daemon loops ended before Close", n)
			}

			if err := cluster.Close(); err != nil {
				t.Fatal(err)
			}
			for i, err := range daemons.join() {
				if err != nil {
					t.Errorf("daemon loop %d: %v", i, err)
				}
			}
		})
	}
}

// TestClusterTreeReusesCenterScratch runs (k,t)-center jobs of several
// coordinator sizes back to back on one tree fleet, whose coordinator solves
// every one of them in the fleet's one kcenter.Scratch. The big job runs
// twice in a row, so the second solve reuses the ball index of the first;
// then one job is cancelled while every leaf is inside round 0 and one is
// rejected by every leaf at its job frame, and the big job runs right
// after each, over the index it left; then the instance shrinks and grows
// again, and at the end two goroutines submit jobs of different sizes at
// once. Every job that completes answers with centers, cost and logical
// bytes byte-identical to client.Local over the same shards.
func TestClusterTreeReusesCenterScratch(t *testing.T) {
	const sites, branch = 8, 2
	in := gen.Mixture(gen.MixtureSpec{N: 640, K: 4, OutlierFrac: 0.05, Seed: 33})
	reqs := map[string]Request{ // about 128, 28 and 64 coordinator clients
		"big":   {Objective: Center, K: 4, T: 48, Seed: 5, Points: in.Pts},
		"small": {Objective: Center, K: 2, T: 6, Seed: 5, Points: in.Pts},
		"mid":   {Objective: Center, K: 3, T: 20, Seed: 5, Points: in.Pts},
	}
	want := map[string]*Response{}
	for name, req := range reqs {
		req.Sites = sites
		r, err := NewLocal().Do(context.Background(), req)
		if err != nil {
			t.Fatalf("local %s: %v", name, err)
		}
		want[name] = r
	}
	rejected := Request{Objective: UncertainMedian, K: 1, T: 1, Ground: &Ground{Pts: []Point{{0, 0}, {1, 0}, {0, 1}}}}

	cl, err := ListenClusterTree("127.0.0.1:0", sites, branch)
	if err != nil {
		t.Fatal(err)
	}
	aggAddrs, daemons := startAggregatorTree(t, cl.Addr(), sites, branch)
	gate := &roundGate{entered: make(chan struct{}), release: make(chan struct{})}
	for i, shard := range dataio.SplitRoundRobin(in.Pts, sites) {
		addr, d := aggAddrs[i/branch], jobwire.SiteData{Site: i, Pts: shard}
		daemons.start(func() error {
			return transport.Redial(addr, i, 10*time.Second, func(sc *transport.Site) error {
				return jobwire.ServeJobs(sc, d, gate.wrap)
			})
		})
	}
	cluster, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	bounded, stop := context.WithTimeout(context.Background(), 60*time.Second)
	defer stop()
	// check runs reqs[name] on the tree and reports any difference from
	// Local with t.Error, so that it may run off the test's goroutine.
	check := func(name, when string) {
		got, err := cluster.Do(bounded, reqs[name])
		if err != nil {
			t.Errorf("%s job %s: %v", name, when, err)
			return
		}
		w := want[name]
		if !reflect.DeepEqual(got.Centers, w.Centers) || got.Cost != w.Cost || got.UpBytes != w.UpBytes || got.DownBytes != w.DownBytes {
			t.Errorf("%s job %s: tree centers %v, cost %g, bytes %d up %d down; local %v, %g, %d up %d down", name, when,
				got.Centers, got.Cost, got.UpBytes, got.DownBytes, w.Centers, w.Cost, w.UpBytes, w.DownBytes)
		}
	}

	check("big", "first")
	check("big", "again")

	gate.armed.Store(true)
	ctx, cancel := context.WithCancel(bounded)
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Do(ctx, reqs["mid"])
		done <- err
	}()
	for i := 0; i < sites; i++ {
		select {
		case <-gate.entered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d leaves reached round 0", i, sites)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: %v, want context.Canceled", err)
	}
	gate.armed.Store(false)
	close(gate.release)

	check("big", "after the cancel")
	if _, err := cluster.Do(bounded, rejected); err == nil {
		t.Fatal("an uncertain job on point-only leaves succeeded")
	}
	check("big", "after the rejected job")
	check("small", "after the big one")
	check("mid", "after the small one")
	var wg sync.WaitGroup
	for _, name := range []string{"small", "big"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				check(name, "submitted beside another")
			}
		}()
	}
	wg.Wait()
	if n := daemons.ended.Load(); n != 0 {
		t.Fatalf("%d daemon loops ended before Close", n)
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range daemons.join() {
		if err != nil {
			t.Errorf("daemon loop %d: %v", i, err)
		}
	}
}

// BenchmarkClusterTreeCenter runs (k,t)-center jobs back to back on a tree
// fleet shaped like the repo benchmark's fanin-tree: 32 leaves of 128
// points under 4 aggregators, k = 4, t = 128, so the coordinator solves
// about 384 weighted preclusters a job. Besides time and bytes a job it
// reports the garbage collections per 1,000 jobs of the whole process,
// leaves and aggregators included.
//
//	go test ./client -run '^$' -bench ClusterTreeCenter -benchtime 1000x
func BenchmarkClusterTreeCenter(b *testing.B) {
	const sites, branch = 32, 8
	in := gen.Mixture(gen.MixtureSpec{N: 4096, K: 4, Dim: 2, OutlierFrac: 128.0 / 4096, Seed: 1})
	cl, err := ListenClusterTree("127.0.0.1:0", sites, branch)
	if err != nil {
		b.Fatal(err)
	}
	aggAddrs, daemons := startAggregatorTree(b, cl.Addr(), sites, branch)
	for i, shard := range dataio.SplitRoundRobin(in.Pts, sites) {
		addr := aggAddrs[i/branch]
		daemons.start(func() error { return ServeSite(addr, SiteData{Site: i, Points: shard}, 10*time.Second) })
	}
	cluster, err := cl.Accept()
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Objective: Center, K: 4, T: 128, Seed: 1}
	do := func() {
		if _, err := cluster.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	for range 20 {
		do()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		do()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)*1000/float64(b.N), "gcs/1000jobs")
	if err := cluster.Close(); err != nil {
		b.Fatal(err)
	}
	for i, err := range daemons.join() {
		if err != nil {
			b.Errorf("daemon loop %d: %v", i, err)
		}
	}
}
