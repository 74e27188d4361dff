package client

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/metric"
	"dpc/internal/serve"
	"dpc/internal/uncertain"
)

// startSiteFleet replicates a `dpc-site` fleet in-process: each
// site runs ServeSite — the daemon's exact code path (job-frame hello
// check, long-lived cache, jobwire handler factory) — over its point
// shard and uncertain node shard. The returned join waits for the serve
// loops to end.
func startSiteFleet(t *testing.T, addr string, shards [][]metric.Point, g *uncertain.Ground, nodeShards [][]uncertain.Node) func() []error {
	t.Helper()
	n := len(shards)
	if nodeShards != nil && len(nodeShards) != n {
		t.Fatalf("fleet shards mismatch: %d point, %d node", n, len(nodeShards))
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := SiteData{Site: i, Points: shards[i], Ground: g}
			if nodeShards != nil {
				d.Nodes = nodeShards[i]
			}
			errs[i] = ServeSite(addr, d, 10*time.Second)
		}(i)
	}
	return func() []error { wg.Wait(); return errs }
}

// newCluster spins up a fleet + cluster backend over the given data.
func newCluster(t *testing.T, shards [][]metric.Point, g *uncertain.Ground, nodeShards [][]uncertain.Node) (*Cluster, func() []error) {
	t.Helper()
	cl, err := ListenCluster("127.0.0.1:0", len(shards))
	if err != nil {
		t.Fatal(err)
	}
	join := startSiteFleet(t, cl.Addr(), shards, g, nodeShards)
	cluster, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return cluster, join
}

// newRemote spins up an embedded dpc-server + remote backend.
func newRemote(t *testing.T, cfg serve.Config) (*Remote, *serve.Server) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return NewRemote(hs.URL, RemoteOptions{}), s
}

// assertSameCenters requires byte-identical centers (exact float equality,
// coordinate by coordinate).
func assertSameCenters(t *testing.T, got, want []Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centers, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: center %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestRequestRoundTripAllBackends is the acceptance test of the unified
// API: the same Request — each of the seven objectives in turn — returns
// byte-identical centers, cost, outlier budget and tau via Local
// (in-process), Cluster (TCP site daemons) and Remote (dpc-server HTTP), and
// the distributed backends report identical payload-byte communication.
func TestRequestRoundTripAllBackends(t *testing.T) {
	const sites = 4
	in := gen.Mixture(gen.MixtureSpec{N: 240, K: 3, OutlierFrac: 0.05, Seed: 42})
	uin := gen.UncertainMixture(gen.UncertainSpec{N: 72, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 7})
	shards := dataio.SplitRoundRobin(in.Pts, sites)
	nodeShards := dataio.SplitNodesRoundRobin(uin.Nodes, sites)

	local := NewLocal()
	cluster, join := newCluster(t, shards, uin.Ground, nodeShards)
	defer func() {
		cluster.Close()
		for i, err := range join() {
			if err != nil {
				t.Errorf("site %d exited with error: %v", i, err)
			}
		}
	}()
	remote, _ := newRemote(t, serve.Config{})

	var cases []Request
	for _, objective := range []string{Median, Means, Center} {
		cases = append(cases, Request{Objective: objective, K: 3, T: 12, Sites: sites, Seed: 3, Points: in.Pts})
	}
	for _, objective := range []string{UncertainMedian, UncertainMeans, UncertainCenterPP} {
		cases = append(cases, Request{Objective: objective, K: 3, T: 6, Sites: sites, Seed: 3, Ground: uin.Ground, Nodes: uin.Nodes})
	}
	cases = append(cases, Request{Objective: UncertainCenterG, K: 3, T: 4, Sites: sites, Seed: 3, Ground: uin.Ground, Nodes: uin.Nodes})
	ctx := context.Background()
	for _, req := range cases {
		t.Run(req.Objective, func(t *testing.T) {
			rl, err := local.Do(ctx, req)
			if err != nil {
				t.Fatalf("local: %v", err)
			}
			rc, err := cluster.Do(ctx, req)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			rr, err := remote.Do(ctx, req)
			if err != nil {
				t.Fatalf("remote: %v", err)
			}
			if len(rl.Centers) == 0 {
				t.Fatalf("local returned no centers")
			}
			assertSameCenters(t, rc.Centers, rl.Centers, "cluster vs local")
			assertSameCenters(t, rr.Centers, rl.Centers, "remote vs local")
			if rc.UpBytes != rl.UpBytes || rc.DownBytes != rl.DownBytes {
				t.Fatalf("cluster bytes (%d up, %d down) differ from local (%d up, %d down)",
					rc.UpBytes, rc.DownBytes, rl.UpBytes, rl.DownBytes)
			}
			if rr.UpBytes != rl.UpBytes {
				t.Fatalf("remote up bytes %d, local %d", rr.UpBytes, rl.UpBytes)
			}
			// All backends hold the data here, so all report the true
			// global cost — identically.
			if rc.Cost != rl.Cost || rr.Cost != rl.Cost {
				t.Fatalf("costs diverge: local %g, cluster %g, remote %g", rl.Cost, rc.Cost, rr.Cost)
			}
			if rl.OutlierBudget != rc.OutlierBudget || rl.OutlierBudget != rr.OutlierBudget {
				t.Fatalf("outlier budgets diverge: local %g, cluster %g, remote %g",
					rl.OutlierBudget, rc.OutlierBudget, rr.OutlierBudget)
			}
			if rc.Tau != rl.Tau || rr.Tau != rl.Tau {
				t.Fatalf("taus diverge: local %g, cluster %g, remote %g", rl.Tau, rc.Tau, rr.Tau)
			}
			if req.Objective == UncertainCenterG && rl.Tau == 0 {
				t.Fatalf("u-centerg returned no truncation threshold")
			}
		})
	}
}

// TestNamedDatasetReuse exercises the Remote backend against a registered
// dataset: same request, Dataset instead of Points, identical centers, and
// the second run served from the warm server-side cache.
func TestNamedDatasetReuse(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 200, K: 3, Dim: 8, OutlierFrac: 0.05, Seed: 9})
	remote, _ := newRemote(t, serve.Config{})
	ctx := context.Background()
	if err := remote.RegisterDataset(ctx, "named", in.Pts); err != nil {
		t.Fatal(err)
	}
	req := Request{Objective: Median, K: 3, T: 10, Sites: 2, Seed: 1, Dataset: "named"}
	r1, err := remote.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	before, err := remote.Dataset(ctx, "named")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := remote.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after, err := remote.Dataset(ctx, "named")
	if err != nil {
		t.Fatal(err)
	}
	assertSameCenters(t, r2.Centers, r1.Centers, "repeat run")
	if after.CacheMisses != before.CacheMisses {
		t.Fatalf("repeat run recomputed distances (%d -> %d misses)", before.CacheMisses, after.CacheMisses)
	}
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("repeat run produced no cache hits (%d -> %d)", before.CacheHits, after.CacheHits)
	}

	// The identical request answered locally: same centers.
	local := NewLocal()
	lreq := req
	lreq.Points = in.Pts
	rl, err := local.Do(ctx, lreq)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCenters(t, r1.Centers, rl.Centers, "remote vs local")
}

// TestRemoteUncertainSharedGroundExact pins the exact-instance transport
// of uncertain data: a ground set with support points shared across nodes
// (and a node pinned to a far ground point) must solve identically on the
// Remote backend, which ships the ground explicitly and references it by
// index rather than duplicating per-node support points.
func TestRemoteUncertainSharedGroundExact(t *testing.T) {
	g := &Ground{Pts: []Point{{0, 0}, {1, 0}, {5, 5}, {9, 9}, {0.5, 0.2}, {5.5, 4.5}}}
	nodes := []Node{
		{Support: []int{0, 2}, Prob: []float64{0.5, 0.5}},
		{Support: []int{1, 2}, Prob: []float64{0.25, 0.75}}, // shares ground point 2
		{Support: []int{0, 1, 4}, Prob: []float64{0.25, 0.25, 0.5}},
		{Support: []int{3}, Prob: []float64{1}},
		{Support: []int{2, 5}, Prob: []float64{0.5, 0.5}},
	}
	remote, _ := newRemote(t, serve.Config{})
	local := NewLocal()
	ctx := context.Background()
	for _, objective := range []string{UncertainMedian, UncertainCenterG} {
		req := Request{Objective: objective, K: 2, T: 1, Sites: 2, Seed: 1, Ground: g, Nodes: nodes}
		rl, err := local.Do(ctx, req)
		if err != nil {
			t.Fatalf("local %s: %v", objective, err)
		}
		rr, err := remote.Do(ctx, req)
		if err != nil {
			t.Fatalf("remote %s: %v", objective, err)
		}
		assertSameCenters(t, rr.Centers, rl.Centers, objective+" shared-ground")
		if rr.Cost != rl.Cost || rr.Tau != rl.Tau {
			t.Fatalf("%s: remote (cost %g, tau %g) vs local (cost %g, tau %g)",
				objective, rr.Cost, rr.Tau, rl.Cost, rl.Tau)
		}
	}
}

// cancelInstance is sized so a full solve takes far longer than the cancel
// delay on any plausible machine: cancellation must interrupt it mid-run.
func cancelInstance() gen.Instance {
	return gen.Mixture(gen.MixtureSpec{N: 20000, K: 4, OutlierFrac: 0.05, Seed: 11})
}

func cancelRequest(pts []Point) Request {
	return Request{Objective: Median, K: 4, T: 120, Sites: 2, Seed: 1, Points: pts}
}

// TestCancellationAllBackends proves a context cancelled mid-solve returns
// promptly with context.Canceled on Local, Cluster and Remote, and on
// Local's centralized solver (one simulated level over the same instance).
func TestCancellationAllBackends(t *testing.T) {
	in := cancelInstance()
	req := cancelRequest(in.Pts)
	shards := dataio.SplitRoundRobin(in.Pts, req.Sites)

	backends := []struct {
		name    string
		build   func(t *testing.T) Client
		central bool
	}{
		{"local", func(t *testing.T) Client { return NewLocal() }, false},
		{"local-central", func(t *testing.T) Client { return NewLocal() }, true},
		{"cluster", func(t *testing.T) Client {
			cluster, _ := newCluster(t, shards, nil, nil)
			// Join is not asserted: a cancellation tears the sites down
			// mid-protocol by design.
			return cluster
		}, false},
		{"remote", func(t *testing.T) Client {
			remote, _ := newRemote(t, serve.Config{})
			return remote
		}, false},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			c := b.build(t)
			r := req
			if b.central {
				r.Central, r.Levels = true, 1
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(40 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := c.Do(ctx, r)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("cancelled %s run returned a result", b.name)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s returned %v, want context.Canceled", b.name, err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("%s took %v to notice cancellation", b.name, elapsed)
			}
			c.Close()
		})
	}
}

// TestCancelledClusterReconnects pins the lazy-reconnect semantics: a
// mid-protocol cancellation drops the desynchronized site connections, and
// the next Do re-binds the original address, waits for the redialing
// daemons (ServeSiteLoop — dpc-site's loop), and answers with the
// same centers a never-cancelled run produces.
func TestCancelledClusterReconnects(t *testing.T) {
	in := cancelInstance()
	req := cancelRequest(in.Pts)
	shards := dataio.SplitRoundRobin(in.Pts, req.Sites)

	cl, err := ListenCluster("127.0.0.1:0", len(shards))
	if err != nil {
		t.Fatal(err)
	}
	// A redialing fleet: each site dials again when its connection drops
	// without a clean protocol close, exactly like dpc-site.
	var wg sync.WaitGroup
	siteErrs := make([]error, len(shards))
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			siteErrs[i] = ServeSiteLoop(cl.Addr(), SiteData{Site: i, Points: shards[i]}, 10*time.Second)
		}(i)
	}
	cluster, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(40 * time.Millisecond); cancel() }()
	if _, err := cluster.Do(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Do: %v, want context.Canceled", err)
	}

	got, err := cluster.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do after cancellation did not reconnect: %v", err)
	}
	want, err := NewLocal().Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCenters(t, got.Centers, want.Centers, "post-reconnect")

	cluster.Close()
	wg.Wait()
	for i, err := range siteErrs {
		if err != nil {
			t.Errorf("site %d exited with error: %v", i, err)
		}
	}

	// Closed is terminal: no reconnect attempt, an immediate error.
	if _, err := cluster.Do(context.Background(), req); err == nil {
		t.Fatalf("Do on a closed cluster succeeded")
	}
}

// TestCancelledClusterReconnectHonorsContext pins the other half of the
// contract: when the fleet is gone for good (plain ServeSite, no redial),
// the reconnect wait is bounded by the caller's context instead of hanging.
func TestCancelledClusterReconnectHonorsContext(t *testing.T) {
	in := cancelInstance()
	req := cancelRequest(in.Pts)
	shards := dataio.SplitRoundRobin(in.Pts, req.Sites)
	cluster, _ := newCluster(t, shards, nil, nil)
	defer cluster.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(40 * time.Millisecond); cancel() }()
	if _, err := cluster.Do(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Do: %v, want context.Canceled", err)
	}

	short, stop := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer stop()
	start := time.Now()
	_, err := cluster.Do(short, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do with a dead fleet: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("reconnect wait ignored the context deadline (%v)", elapsed)
	}
}

// TestLocalValidation pins the request-validation errors shared by all
// backends.
func TestLocalValidation(t *testing.T) {
	local := NewLocal()
	ctx := context.Background()
	pts := gen.Mixture(gen.MixtureSpec{N: 40, K: 2, Seed: 1}).Pts
	for _, req := range []Request{
		{Objective: "mode", K: 2, Points: pts},
		{Objective: Median, K: 0, Points: pts},
		{Objective: Median, K: 2, T: -1, Points: pts},
		{Objective: Median, K: 2, Points: nil},
		{Objective: UncertainMedian, K: 2, Points: pts}, // no nodes
		{Objective: Median, K: 2, T: 40, Points: pts},   // t >= n
		{Objective: Center, K: 2, Central: true, Points: pts},
	} {
		if _, err := local.Do(ctx, req); err == nil {
			t.Fatalf("request %+v validated", req)
		}
	}
}

// TestRequestValidatesData: malformed in-memory data is a validation error
// on every backend, before any site sees it. The ragged point and the
// out-of-range support index used to panic a Local site goroutine and take
// the whole process down.
func TestRequestValidatesData(t *testing.T) {
	pts := gen.Mixture(gen.MixtureSpec{N: 40, K: 2, Seed: 1}).Pts
	with := func(i int, p Point) []Point {
		out := append([]Point(nil), pts...)
		out[i] = p
		return out
	}
	g := &Ground{Pts: []Point{{0, 0}, {1, 0}, {0, 1}}}
	nodes := []Node{{Support: []int{0, 1}, Prob: []float64{0.5, 0.5}}, {Support: []int{2}, Prob: []float64{1}}}
	rows := map[string]Request{
		"ragged point":      {Points: with(7, Point{1, 2, 3})},
		"empty point":       {Points: with(0, Point{})},
		"NaN coordinate":    {Points: with(3, Point{math.NaN(), 0})},
		"infinite":          {Points: with(39, Point{0, math.Inf(-1)})},
		"support out of P":  {Objective: UncertainMedian, Ground: g, Nodes: append(nodes, Node{Support: []int{7}, Prob: []float64{1}})},
		"probabilities":     {Objective: UncertainMedian, Ground: g, Nodes: append(nodes, Node{Support: []int{0, 1}, Prob: []float64{0.5, 0.6}})},
		"nodes without P":   {Objective: UncertainMedian, Nodes: nodes},
		"ragged ground":     {Objective: UncertainMedian, Ground: &Ground{Pts: []Point{{0, 0}, {1}, {0, 1}}}, Nodes: nodes},
		"non-finite ground": {Objective: UncertainMedian, Ground: &Ground{Pts: []Point{{0, 0}, {1, math.NaN()}, {0, 1}}}, Nodes: nodes},
	}

	cluster, join := newCluster(t, dataio.SplitRoundRobin(pts, 2), g, nil)
	defer join()
	defer cluster.Close()
	remote, _ := newRemote(t, serve.Config{})
	balanced, err := NewBalanced([]string{"http://127.0.0.1:1"}, BalancedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]Client{"local": NewLocal(), "cluster": cluster, "remote": remote, "balanced": balanced}
	for name, req := range rows {
		req.K, req.T, req.Sites = 2, 2, 2
		if req.Validate() == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		for b, c := range backends {
			if _, err := c.Do(context.Background(), req); err == nil || !strings.HasPrefix(err.Error(), "client: ") {
				t.Errorf("%s on %s: error %v, want a client validation error", name, b, err)
			}
		}
	}
	ok := Request{Objective: UncertainMedian, K: 2, T: 1, Sites: 2, Ground: g, Nodes: nodes}
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed uncertain request rejected: %v", err)
	}
}

// TestLocalCentral covers the Centralized wrap of the Local backend.
func TestLocalCentral(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 160, K: 3, OutlierFrac: 0.05, Seed: 5})
	local := NewLocal()
	res, err := local.Do(context.Background(), Request{
		Objective: Median, K: 3, T: 8, Seed: 1, Central: true, Points: in.Pts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 || res.CostKind != "global" {
		t.Fatalf("central response: %d centers, kind %q", len(res.Centers), res.CostKind)
	}
}
