package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpc"
	"dpc/client"
	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/gen"
	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// fleetDialTimeout bounds how long fleet members retry dialing their parent.
const fleetDialTimeout = 10 * time.Second

// fleet is a persistent in-process aggregation-tree deployment on
// 127.0.0.1: a root, one tier of aggregators (the dpc-site -aggregate code
// path: transport.Listen/Dial + tree.Serve) and the leaf sites, every link a
// real TCP socket.
//
// Untraced, the root is client.ListenClusterTree and the leaves are
// client.ServeSiteLoop. Traced, the root is assembled from the same public
// parts client.Cluster uses (transport.Listener.Accept + tree.NewRootOver)
// so a watchedTransport fits between it and core.RunOverCtx, and the leaves
// run jobwire.ServeJobs with its handler hook carrying the stopwatch.
type fleet struct {
	cluster *client.Cluster // untraced root
	root    *tree.Root      // traced root

	// clock is the current traced job's stopwatch, read by the leaves when
	// a job frame arrives.
	clock atomic.Pointer[jobClock]

	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func (f *fleet) fail(err error) {
	if err != nil {
		f.mu.Lock()
		f.errs = append(f.errs, err)
		f.mu.Unlock()
	}
}

// startFleet connects the whole tree over shards and returns once the root
// has accepted its aggregators.
func startFleet(shards [][]metric.Point, branch int, traced bool) (*fleet, error) {
	sites := len(shards)
	tiers := tree.Tiers(sites, branch)
	if len(tiers) != 1 {
		return nil, fmt.Errorf("fleet: %d sites under branch %d need %d aggregator tiers; the benchmark fleet has one", sites, branch, len(tiers))
	}
	groups := tree.Groups(sites, branch)
	f := &fleet{}

	var parent string
	var cl *client.ClusterListener
	var rootL *transport.Listener
	var err error
	if traced {
		if rootL, err = transport.Listen("127.0.0.1:0", len(groups)); err != nil {
			return nil, err
		}
		parent = rootL.Addr().String()
	} else {
		if cl, err = client.ListenClusterTree("127.0.0.1:0", sites, branch); err != nil {
			return nil, err
		}
		parent = cl.Addr()
	}

	aggAddrs := make([]string, len(groups))
	for a, size := range groups {
		l, err := transport.Listen("127.0.0.1:0", size)
		if err != nil {
			return nil, err
		}
		aggAddrs[a] = l.Addr().String()
		f.wg.Add(1)
		go func(a, size int) {
			defer f.wg.Done()
			defer l.Close()
			sc, err := transport.Dial(parent, a, fleetDialTimeout)
			if err != nil {
				f.fail(fmt.Errorf("aggregator %d: %w", a, err))
				return
			}
			defer sc.Close()
			child, err := l.AcceptBase(size, a*branch, sc.Hello())
			if err != nil {
				f.fail(fmt.Errorf("aggregator %d: %w", a, err))
				return
			}
			if err := tree.Serve(sc, child, false); err != nil {
				f.fail(fmt.Errorf("aggregator %d: %w", a, err))
			}
		}(a, size)
	}
	for i := range shards {
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			addr := aggAddrs[i/branch]
			if !traced {
				if err := client.ServeSiteLoop(addr, client.SiteData{Site: i, Points: shards[i]}, fleetDialTimeout); err != nil {
					f.fail(fmt.Errorf("leaf %d: %w", i, err))
				}
				return
			}
			sc, err := transport.Dial(addr, i, fleetDialTimeout)
			if err != nil {
				f.fail(fmt.Errorf("leaf %d: %w", i, err))
				return
			}
			defer sc.Close()
			// Cache traffic is not counted here: 32 leaves bumping counters
			// on every lookup slowed a 20 ms job by a fifth.
			err = jobwire.ServeJobs(sc, jobwire.SiteData{Site: i, Pts: shards[i]},
				func(_ int, _ []byte, h transport.Handler) transport.Handler {
					if c := f.clock.Load(); c != nil {
						return c.watch(i, h)
					}
					return h
				})
			if err != nil {
				f.fail(fmt.Errorf("leaf %d: %w", i, err))
			}
		}(i)
	}

	if traced {
		coord, err := rootL.Accept(len(groups), []byte(transport.JobsHello))
		rootL.Close()
		if err != nil {
			return nil, err
		}
		if f.root, err = tree.NewRootOver(coord, sites, branch); err != nil {
			coord.Close()
			return nil, err
		}
		return f, nil
	}
	if f.cluster, err = cl.Accept(); err != nil {
		return nil, err
	}
	return f, nil
}

// startJob ships the job frame that re-arms every leaf of a traced fleet for
// cfg, as client.Cluster does before each request.
func (f *fleet) startJob(cfg core.Config) error {
	blob, err := jobwire.Encode(jobwire.Job{Kind: jobwire.KindPoint, Core: cfg})
	if err != nil {
		return err
	}
	return f.root.StartJob(blob)
}

// close ends the protocol (every aggregator and leaf leaves its serve loop)
// and waits for the fleet's goroutines.
func (f *fleet) close() error {
	var err error
	if f.cluster != nil {
		err = f.cluster.Close()
	} else {
		err = f.root.Close()
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(append([]error{err}, f.errs...)...)
}

// faninWorkload is fanin-tree: (k,t)-center jobs against the fleet.
type faninWorkload struct {
	p       preset
	seed    int64
	in      gen.Instance
	planted float64
	fleet   *fleet
	connect time.Duration // listen + dial + handshake of the whole fleet
}

func setupFanin(ctx context.Context, p preset, seed int64, traced bool) (workload, error) {
	w := &faninWorkload{p: p, seed: seed, in: mixture(p, seed*1000)}
	w.planted = plantedCost(w.in, p.T, parseObjective(p.Objective))
	t0 := time.Now()
	f, err := startFleet(dataio.SplitRoundRobin(w.in.Pts, p.Sites), p.Branch, traced)
	if err != nil {
		return nil, err
	}
	w.fleet, w.connect = f, time.Since(t0)
	for j := 0; j < p.Warmup; j++ {
		var err error
		if traced {
			_, err = w.traced(ctx, nil, -1-j)
		} else {
			_, err = f.cluster.Do(ctx, w.request(-1-j))
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return w, nil
}

func (w *faninWorkload) request(i int) client.Request {
	return client.Request{Objective: w.p.Objective, K: w.p.K, T: w.p.T, Seed: w.seed + int64(i)}
}

func (w *faninWorkload) op(ctx context.Context, i int) opSample {
	s := opSample{idx: i, kind: w.p.Objective, job: true, points: w.p.N}
	t0 := time.Now()
	resp, err := w.fleet.cluster.Do(ctx, w.request(i))
	s.ms = msSince(t0)
	if err != nil {
		s.fail("%v", err)
		return s
	}
	s.resp, s.up, s.down = resp, resp.UpBytes, resp.DownBytes
	if i < w.p.ExactOps {
		s.exact = true
		s.ratio = dpc.Evaluate(w.in.Pts, resp.Centers, resp.OutlierBudget, parseObjective(w.p.Objective)) / w.planted
		checkPointJob(&s, w.p.K, w.p.T, w.p.CostCeiling)
	}
	return s
}

// traced runs op i the way client.Cluster.Do does — job frame down the
// tree, then core.RunOverCtx over the root — with stopwatches on the root's
// transport and on every leaf handler. tr may be nil (warm-up).
func (w *faninWorkload) traced(ctx context.Context, tr *tracer, i int) (replicaResult, error) {
	var out replicaResult
	cfg := coreConfig(w.p, w.seed+int64(i))
	clock := newJobClock()
	w.fleet.clock.Store(clock)
	t0 := time.Now()
	if err := w.fleet.startJob(cfg); err != nil {
		return out, err
	}
	tStart := time.Now()
	res, err := core.RunOverCtx(ctx, &watchedTransport{inner: w.fleet.root, clock: clock}, cfg)
	if err != nil {
		return out, err
	}
	tEnd := time.Now()
	out.res, out.clock, out.total = res, clock, tEnd.Sub(t0)
	sink += dpc.Evaluate(w.in.Pts, res.Centers, res.OutlierBudget, cfg.Objective)
	out.eval = time.Since(tEnd)
	if tr != nil {
		root := tr.add("job", i, -1, t0, tEnd)
		do := tr.add("client.do", i, root, t0, tEnd)
		tr.add("jobwire.start", i, do, t0, tStart)
		clock.emitProtocolSpans(tr, i, do, tEnd, replayDecode(clock, cfg))
	}
	return out, nil
}

// bare is traced's job with the stopwatches off: the leaves serve their
// unwrapped handlers and the root is driven directly.
func (w *faninWorkload) bare(ctx context.Context, i int) (time.Duration, error) {
	cfg := coreConfig(w.p, w.seed+int64(i))
	w.fleet.clock.Store(nil)
	t0 := time.Now()
	if err := w.fleet.startJob(cfg); err != nil {
		return 0, err
	}
	_, err := core.RunOverCtx(ctx, w.fleet.root, cfg)
	return time.Since(t0), err
}

func (w *faninWorkload) pointJob(i int) pointJob {
	return pointJob{pts: w.in.Pts, sites: w.p.Sites, cfg: coreConfig(w.p, w.seed+int64(i))}
}

func (w *faninWorkload) topo() tree.Spec { return tree.Spec{Tree: true, Branch: w.p.Branch} }

func (w *faninWorkload) localRequest(s opSample) (client.Request, bool) {
	req := w.request(s.idx)
	req.Sites, req.Points = w.p.Sites, w.in.Pts
	return req, true
}

func (w *faninWorkload) close() error { return w.fleet.close() }
