package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpc"
	"dpc/client"
	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/metric"
	"dpc/internal/serve"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Op kinds. The job kinds double as the suffixes of the serve.run_ms.* and
// serve.job_p95_by_kind_ms.* metrics.
const (
	opMedian     = "median"
	opMeans      = "means"
	opCenter     = "center"
	opUMedian    = "u-median"
	opMedianCold = "median-cold"
	opAppend     = "append"
)

// opSample is one operation of a workload's seeded sequence as the client
// saw it.
type opSample struct {
	idx  int
	kind string
	job  bool    // a clustering job (false: an append)
	ms   float64 // submit -> response in hand
	// Exact facts of a job (identical across runs of one seed).
	up, down int64
	points   int
	ratio    float64 // cost ratio; 0 when not evaluated
	exact    bool    // counts towards the exact medians
	resp     *client.Response
	failures []string

	// Service detail, filled by the serve driver's traced path.
	submitMS, getMS float64 // the POST, and one GET of the finished job
	queueMS, runMS  float64 // started - submitted, and the job's duration_ms
	serverMS        float64 // finished - submitted
}

func (s *opSample) fail(format string, args ...any) {
	s.failures = append(s.failures, fmt.Sprintf("op %d (%s): ", s.idx, s.kind)+fmt.Sprintf(format, args...))
}

// workload is a set-up instance of one preset: data generated, fleet or
// server running, caches warm.
type workload interface {
	// op performs the i-th operation of the seeded sequence.
	op(ctx context.Context, i int) opSample
	// pointJob is op i restated below the clients (i must be an op of the
	// preset's objective on the main dataset), and topo the fan-in it runs
	// under.
	pointJob(i int) pointJob
	topo() tree.Spec
	// localRequest is the client.NewLocal request that must answer op s
	// byte-identically; ok is false when the op has no such twin.
	localRequest(s opSample) (req client.Request, ok bool)
	// traced runs op i (as pointJob restates it) below the clients with
	// stopwatches on every site handler and transport call, recording its
	// spans under job id i; bare runs the identical calls without them.
	traced(ctx context.Context, tr *tracer, i int) (replicaResult, error)
	bare(ctx context.Context, i int) (time.Duration, error)
	close() error
}

// setupWorkload builds p's workload from the seed. The seed drives input
// generation and op order only; the program sees generated data and engine
// seeds, never the workload's name.
func setupWorkload(ctx context.Context, p preset, seed int64, tr *tracer) (workload, error) {
	if p.Clients > runtime.NumCPU() {
		return nil, fmt.Errorf("workload %s wants %d client goroutines but nproc is %d", p.Name, p.Clients, runtime.NumCPU())
	}
	switch p.Kind {
	case kindBatch:
		return setupBatch(ctx, p, seed)
	case kindFanin:
		return setupFanin(ctx, p, seed, tr != nil)
	case kindServe:
		w, err := setupServe(ctx, p, seed, tr)
		if err != nil {
			return nil, err
		}
		return w, nil
	}
	return nil, fmt.Errorf("workload %s: unknown kind %q", p.Name, p.Kind)
}

// measure runs the workload's closed loop: p.Clients goroutines each take
// the next op index and wait for its reply before taking another. It stops
// once `seconds` have passed and the first p.ExactOps ops have all been
// handed out, and returns the samples in index order with the wall time
// from the first submit to the last reply.
func measure(ctx context.Context, w workload, p preset, seconds float64) ([]opSample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []opSample
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= p.ExactOps && !time.Now().Before(deadline) {
					return
				}
				s := w.op(ctx, i)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	return samples, wall
}

// mixture generates one planted instance with exactly t far outliers.
func mixture(p preset, seed int64) gen.Instance {
	return gen.Mixture(gen.MixtureSpec{
		N: p.N, K: p.K, Dim: p.Dim, OutlierFrac: float64(p.T) / float64(p.N), Seed: seed,
	})
}

// parseObjective maps an objective name through the program's own parser.
func parseObjective(name string) core.Objective {
	cfg, err := serve.JobSpec{Objective: name}.CoreConfig()
	if err != nil {
		panic(fmt.Sprintf("objective %q: %v", name, err)) // names come from the preset table
	}
	return cfg.Objective
}

// plantedCost is the reference the cost ratio divides by: the planted
// centers' partial cost with the t planted outliers dropped.
func plantedCost(in gen.Instance, t int, obj core.Objective) float64 {
	return dpc.Evaluate(in.Pts, in.TrueCenters, float64(t), obj)
}

// coreConfig is the core.Config a client.Request{Objective, K, T, Seed}
// resolves to, through the program's own mapping.
func coreConfig(p preset, seed int64) core.Config {
	cfg, err := serve.JobSpec{Objective: p.Objective, K: p.K, T: p.T, Seed: seed}.CoreConfig()
	if err != nil {
		panic(fmt.Sprintf("preset %s: %v", p.Name, err)) // a bad preset table is a bug
	}
	return cfg
}

// checkPointJob applies the output checks every point job must pass: at
// most k centers, an entitled outlier budget within (1+eps)t, site budgets
// summing to at most 3t, and a cost ratio under the preset's ceiling.
func checkPointJob(s *opSample, k, t int, ceiling float64) {
	r := s.resp
	if len(r.Centers) == 0 || len(r.Centers) > k {
		s.fail("%d centers, want 1..%d", len(r.Centers), k)
	}
	const eps = 1 // core.Config's default bicriteria slack
	if r.OutlierBudget > (1+eps)*float64(t) {
		s.fail("outlier budget %g exceeds (1+eps)t = %d", r.OutlierBudget, (1+eps)*t)
	}
	sum := 0
	for _, b := range r.SiteBudgets {
		sum += b
	}
	if sum > 3*t {
		s.fail("site budgets sum to %d > 3t = %d", sum, 3*t)
	}
	if s.ratio > ceiling {
		s.fail("cost ratio %.4f above the ceiling %.2f", s.ratio, ceiling)
	}
}

func sameCenters(a, b []metric.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// batchWorkload drives client.NewLocal().Do over in-memory instances:
// median-shards and means-hidim.
type batchWorkload struct {
	p       preset
	seed    int64
	data    []gen.Instance
	planted []float64
	local   *client.Local
}

func setupBatch(ctx context.Context, p preset, seed int64) (workload, error) {
	w := &batchWorkload{p: p, seed: seed, local: client.NewLocal()}
	obj := parseObjective(p.Objective)
	for d := 0; d < p.Datasets; d++ {
		in := mixture(p, seed*1000+int64(d))
		w.data = append(w.data, in)
		w.planted = append(w.planted, plantedCost(in, p.T, obj))
	}
	for j := 0; j < p.Warmup; j++ {
		if _, err := w.local.Do(ctx, w.request(-1-j)); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return w, nil
}

func (w *batchWorkload) dataset(i int) int {
	d := i % w.p.Datasets
	if d < 0 {
		d += w.p.Datasets
	}
	return d
}

func (w *batchWorkload) request(i int) client.Request {
	return client.Request{
		Objective: w.p.Objective, K: w.p.K, T: w.p.T, Sites: w.p.Sites,
		Seed: w.seed + int64(i), Points: w.data[w.dataset(i)].Pts,
	}
}

func (w *batchWorkload) op(ctx context.Context, i int) opSample {
	s := opSample{idx: i, kind: w.p.Objective, job: true, points: w.p.N}
	req := w.request(i)
	t0 := time.Now()
	resp, err := w.local.Do(ctx, req)
	s.ms = msSince(t0)
	if err != nil {
		s.fail("%v", err)
		return s
	}
	s.resp, s.up, s.down = resp, resp.UpBytes, resp.DownBytes
	if i < w.p.ExactOps {
		d := w.dataset(i)
		s.exact = true
		s.ratio = dpc.Evaluate(w.data[d].Pts, resp.Centers, resp.OutlierBudget, parseObjective(w.p.Objective)) / w.planted[d]
		checkPointJob(&s, w.p.K, w.p.T, w.p.CostCeiling)
	}
	return s
}

func (w *batchWorkload) pointJob(i int) pointJob {
	return pointJob{pts: w.data[w.dataset(i)].Pts, sites: w.p.Sites, cfg: coreConfig(w.p, w.seed+int64(i))}
}

func (w *batchWorkload) topo() tree.Spec { return tree.Spec{} }

func (w *batchWorkload) localRequest(s opSample) (client.Request, bool) {
	return w.request(s.idx), true
}

// countedJob is op i's point job with a fresh counting cache per shard —
// what each site would build for itself (costsOver: a DistCache up to
// MaxCachePoints, the raw points beyond), plus counters.
func (w *batchWorkload) countedJob(i int, st *metric.CacheStats) pointJob {
	job := w.pointJob(i)
	job.oracleFor = func(_ int, shard []metric.Point) metric.Oracle {
		if len(shard) > metric.MaxCachePoints {
			return nil
		}
		dc := metric.NewDistCache(metric.NewPoints(shard))
		dc.Counters = st
		return dc
	}
	return job
}

// traced replays op i through the lower-level entry points, sites
// sequential (comm.Report.SiteWork sums per-site wall time, which only
// means compute time when sites do not share cores).
func (w *batchWorkload) traced(ctx context.Context, tr *tracer, i int) (replicaResult, error) {
	var st metric.CacheStats
	out, err := runReplica(ctx, w.countedJob(i, &st), wire{kind: transport.KindLoopback}, tr, i)
	out.hits, out.misses = st.Snapshot()
	return out, err
}

func (w *batchWorkload) bare(ctx context.Context, i int) (time.Duration, error) {
	out, err := runReplica(ctx, w.pointJob(i), wire{kind: transport.KindLoopback}, nil, i)
	return out.total, err
}

func (w *batchWorkload) close() error { return w.local.Close() }

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
