package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dpc"
	"dpc/client"
	"dpc/internal/gen"
	"dpc/internal/metric"
	"dpc/internal/serve"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Dataset names of the serve workload.
const (
	dsHot    = "hot"    // table, jobs hit its warm shared caches
	dsIngest = "ingest" // table, appended to during the run, so its jobs run cold
	dsUnc    = "unc"    // uncertain nodes
)

// serveCacheBytes bounds the server's shared distance-cache pool.
const serveCacheBytes = 32 << 20

// opMix is one period of the serve workload's op sequence (shuffled by the
// seed): 50% median and 15% center on hot, 10% u-median on unc, 15% appends
// and 10% median on ingest.
var opMix = func() []string {
	var mix []string
	for _, part := range []struct {
		kind string
		n    int
	}{{opMedian, 10}, {opCenter, 3}, {opUMedian, 2}, {opAppend, 3}, {opMedianCold, 2}} {
		for i := 0; i < part.n; i++ {
			mix = append(mix, part.kind)
		}
	}
	return mix
}()

// outDir is the benchmark's out/ directory, the only place it writes:
// benchmark/out from the repository root (where run.sh runs the command),
// out when run from the benchmark's own directory.
func outDir() (string, error) {
	dir := "out"
	if _, err := os.Stat("benchmark/run.sh"); err == nil {
		dir = "benchmark/out"
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// scratchDir creates a fresh directory under out/.
func scratchDir(prefix string) (string, error) {
	dir, err := outDir()
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, prefix+"-*")
}

// serveWorkload is serve-mixed: an in-process dpc server behind a real
// 127.0.0.1 listener with an fsynced journal, driven through client.Remote.
type serveWorkload struct {
	p    preset
	seed int64
	tr   *tracer // nil untraced

	dir    string // journal directory
	cfg    dpc.ServeConfig
	srv    *dpc.Server
	hs     *http.Server
	hsDone chan error
	remote *client.Remote
	base   string

	hot, ingest         gen.Instance
	unc                 gen.UncertainInstance
	hotPlanted          map[string]float64 // by objective
	uncPlanted          float64
	kinds               []string  // one shuffled period of opMix
	registerMS          []float64 // one per dataset
	hotHits0, hotMisses int64     // hot's cache counters when the session starts

	// Long-lived per-shard caches of the traced replica, shared across its
	// jobs the way internal/serve shares a dataset's shard caches.
	replicaCaches map[int]*metric.DistCache
	replicaStats  metric.CacheStats
}

func setupServe(ctx context.Context, p preset, seed int64, tr *tracer) (w *serveWorkload, err error) {
	w = &serveWorkload{p: p, seed: seed, tr: tr, hotPlanted: make(map[string]float64), replicaCaches: make(map[int]*metric.DistCache)}
	if w.dir, err = scratchDir("journal"); err != nil {
		return nil, err
	}
	w.cfg = dpc.ServeConfig{
		JournalDir: w.dir, JournalSync: true,
		MaxConcurrentJobs: runtime.NumCPU(), WarmOnRegister: true,
		// Every append leaves ingest's previous version's shard caches in
		// the pool until LRU eviction; a pool a few versions deep keeps
		// peak memory a property of the program, not of how many appends
		// a fast machine fits into the run.
		MaxCacheBytes: serveCacheBytes,
	}
	if w.srv, err = serve.NewChecked(w.cfg); err != nil {
		return nil, fmt.Errorf("server start: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.hsDone = make(chan error, 1)
	go func() { w.hsDone <- w.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	w.base = "http://" + ln.Addr().String()
	w.remote = client.NewRemote(w.base, client.RemoteOptions{PollInterval: time.Duration(p.PollMS) * time.Millisecond})

	w.hot = mixture(p, seed*1000)
	for _, obj := range []string{opMedian, opCenter} {
		w.hotPlanted[obj] = plantedCost(w.hot, p.T, parseObjective(obj))
	}
	ip := p
	ip.N = p.IngestN
	w.ingest = mixture(ip, seed*1000+1)
	w.unc = gen.UncertainMixture(gen.UncertainSpec{
		N: p.UncN, K: p.UncK, Dim: p.Dim, OutlierFrac: float64(p.UncT) / float64(p.UncN), Seed: seed*1000 + 2,
	})
	w.uncPlanted = dpc.EvalUncertainMedian(w.unc.Ground, w.unc.Nodes, w.unc.TrueCenters, float64(p.UncT))

	register := func(do func() error) error {
		t0 := time.Now()
		err := do()
		w.registerMS = append(w.registerMS, msSince(t0))
		return err
	}
	if err = register(func() error { return w.remote.RegisterDatasetWarm(ctx, dsHot, w.hot.Pts, true) }); err != nil {
		return nil, err
	}
	if err = register(func() error { return w.remote.RegisterDatasetWarm(ctx, dsIngest, w.ingest.Pts, false) }); err != nil {
		return nil, err
	}
	if err = register(func() error {
		return w.remote.RegisterUncertainDataset(ctx, dsUnc, w.unc.Ground, w.unc.Nodes)
	}); err != nil {
		return nil, err
	}
	if err = w.awaitWarm(ctx); err != nil {
		return nil, err
	}

	w.kinds = append([]string(nil), opMix...)
	rand.New(rand.NewSource(seed)).Shuffle(len(w.kinds), func(a, b int) { w.kinds[a], w.kinds[b] = w.kinds[b], w.kinds[a] })
	// Warm-up: one op of each job kind, through the same client path.
	warm := []string{opMedian, opCenter, opUMedian, opMedianCold}
	for j := 0; j < p.Warmup; j++ {
		if s := w.do(ctx, -1-j, warm[j%len(warm)], nil); len(s.failures) > 0 {
			err = fmt.Errorf("warm-up: %s", s.failures[0])
			return nil, err
		}
	}
	info, err := w.remote.Dataset(ctx, dsHot)
	if err != nil {
		return nil, err
	}
	w.hotHits0, w.hotMisses = info.CacheHits, info.CacheMisses
	return w, nil
}

// awaitWarm waits for hot's background cache prefill, so measured hot jobs
// start on warm shared oracles.
func (w *serveWorkload) awaitWarm(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := w.srv.WarmupStats()
		if st.Started > 0 && st.Done+st.Skipped >= st.Started {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cache warmup of %q did not finish (%+v)", dsHot, st)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (w *serveWorkload) op(ctx context.Context, i int) opSample {
	return w.do(ctx, i, w.kinds[i%len(w.kinds)], w.tr)
}

// request is op i's client.Request for a job kind.
func (w *serveWorkload) request(i int, kind string) client.Request {
	req := client.Request{K: w.p.K, T: w.p.T, Sites: w.p.Sites, Seed: w.seed + int64(i), Dataset: dsHot}
	switch kind {
	case opMedian, opCenter:
		req.Objective = kind
	case opMedianCold:
		req.Objective, req.Dataset = opMedian, dsIngest
	case opUMedian:
		req.Objective, req.Dataset, req.K, req.T = opUMedian, dsUnc, w.p.UncK, w.p.UncT
	}
	return req
}

// appendBatch is op i's points for ingest: planted-cluster points drawn
// from a generator seeded by the op index.
func (w *serveWorkload) appendBatch(i int) []metric.Point {
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(i)))
	pts := make([]metric.Point, w.p.AppendPts)
	for j := range pts {
		c := w.ingest.TrueCenters[rng.Intn(len(w.ingest.TrueCenters))]
		pt := make(metric.Point, len(c))
		for d := range pt {
			pt[d] = c[d] + rng.NormFloat64()
		}
		pts[j] = pt
	}
	return pts
}

// do performs one op. Untraced jobs go through client.Remote.Do; with tr
// set they go through tracedJob.
func (w *serveWorkload) do(ctx context.Context, i int, kind string, tr *tracer) opSample {
	s := opSample{idx: i, kind: kind, job: kind != opAppend}
	if kind == opAppend {
		pts := w.appendBatch(i)
		t0 := time.Now()
		_, err := w.remote.AppendPoints(ctx, dsIngest, pts)
		s.ms = msSince(t0)
		if err != nil {
			s.fail("%v", err)
		}
		return s
	}
	req := w.request(i, kind)
	if tr == nil {
		t0 := time.Now()
		resp, err := w.remote.Do(ctx, req)
		s.ms = msSince(t0)
		if err != nil {
			s.fail("%v", err)
			return s
		}
		s.resp = resp
	} else if err := w.tracedJob(ctx, &s, req, tr); err != nil {
		s.fail("%v", err)
		return s
	}
	s.up, s.down = s.resp.UpBytes, s.resp.DownBytes
	switch kind {
	case opUMedian:
		s.points = w.p.UncN
	case opMedianCold:
		s.points = w.p.IngestN // at least; appends grow it during the run
	default:
		s.points = w.p.N
	}
	if i >= 0 && i < w.p.ExactOps && kind != opMedianCold {
		s.exact = true
		r := s.resp
		if kind == opUMedian {
			s.ratio = dpc.EvalUncertainMedian(w.unc.Ground, w.unc.Nodes, r.Centers, r.OutlierBudget) / w.uncPlanted
			checkPointJob(&s, w.p.UncK, w.p.UncT, w.p.CostCeiling)
		} else {
			s.ratio = dpc.Evaluate(w.hot.Pts, r.Centers, r.OutlierBudget, parseObjective(kind)) / w.hotPlanted[kind]
			checkPointJob(&s, w.p.K, w.p.T, w.p.CostCeiling)
		}
	}
	return s
}

// tracedJob is client.Remote.Do on a named dataset spelled out — Submit,
// Wait, then one more GET — filling s with each step's time and laying the
// job's own submitted/started/finished stamps under the client's clock as
// spans (the server shares this process's clock).
func (w *serveWorkload) tracedJob(ctx context.Context, s *opSample, req client.Request, tr *tracer) error {
	spec := serve.JobSpec{Dataset: req.Dataset, K: req.K, T: req.T, Objective: req.Objective, Sites: req.Sites, Seed: req.Seed}
	t0 := time.Now()
	queued, err := w.remote.Submit(ctx, spec)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	done, err := w.remote.Wait(ctx, queued.ID)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if _, err := w.remote.Job(ctx, queued.ID); err != nil {
		return fmt.Errorf("get: %w", err)
	}
	s.getMS = msSince(t2)
	if done.Result == nil || done.Started == nil || done.Finished == nil {
		return fmt.Errorf("job %s is done without result or stamps", done.ID)
	}
	res := done.Result
	centers := make([]metric.Point, len(res.Centers))
	for c, row := range res.Centers {
		centers[c] = metric.Point(row)
	}
	s.resp = &client.Response{
		Centers: centers, Cost: res.Cost, OutlierBudget: res.OutlierBudget,
		SiteBudgets: res.SiteBudgets, UpBytes: res.UpBytes, DownBytes: res.DownBytes, JobID: done.ID,
	}
	millis := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	s.ms, s.submitMS = millis(t2.Sub(t0)), millis(t1.Sub(t0))
	s.queueMS = millis(done.Started.Sub(done.Submitted))
	s.serverMS = millis(done.Finished.Sub(done.Submitted))
	s.runMS = res.DurationMS

	root := tr.add("job", s.idx, -1, t0, t2)
	cd := tr.add("client.do", s.idx, root, t0, t2)
	tr.add("http.submit", s.idx, cd, t0, t1)
	poll := tr.add("http.poll", s.idx, cd, t1, t2)
	// Clip the server's stamps to the poll span they explain.
	clip := func(t time.Time) time.Time {
		if t.Before(t1) {
			return t1
		}
		if t.After(t2) {
			return t2
		}
		return t
	}
	tr.add("serve.queue", s.idx, poll, clip(done.Submitted), clip(*done.Started))
	tr.add("serve.run", s.idx, poll, clip(*done.Started), clip(*done.Finished))
	return nil
}

// warmJob is op i's point job over shard caches that stay warm across
// replica jobs, the way internal/serve shares a dataset's shard caches
// (its runTable, spelled out).
func (w *serveWorkload) warmJob(i int) pointJob {
	job := w.pointJob(i)
	job.oracleFor = func(site int, shard []metric.Point) metric.Oracle {
		dc, ok := w.replicaCaches[site]
		if !ok {
			dc = metric.NewDistCache(metric.NewPoints(shard))
			dc.Counters = &w.replicaStats
			w.replicaCaches[site] = dc
		}
		return dc
	}
	return job
}

// traced replays a hot median job below the service with stopwatches.
func (w *serveWorkload) traced(ctx context.Context, tr *tracer, i int) (replicaResult, error) {
	h0, m0 := w.replicaStats.Snapshot()
	out, err := runReplica(ctx, w.warmJob(i), wire{kind: transport.KindLoopback}, tr, i)
	h1, m1 := w.replicaStats.Snapshot()
	out.hits, out.misses = h1-h0, m1-m0
	return out, err
}

// bare is traced's job without stopwatches.
func (w *serveWorkload) bare(ctx context.Context, i int) (time.Duration, error) {
	out, err := runReplica(ctx, w.warmJob(i), wire{kind: transport.KindLoopback}, nil, i)
	return out.total, err
}

func (w *serveWorkload) pointJob(i int) pointJob {
	return pointJob{pts: w.hot.Pts, sites: w.p.Sites, cfg: coreConfig(w.p, w.seed+int64(i))}
}

func (w *serveWorkload) topo() tree.Spec { return tree.Spec{} }

func (w *serveWorkload) localRequest(s opSample) (client.Request, bool) {
	req := w.request(s.idx, s.kind)
	req.Dataset = ""
	switch s.kind {
	case opMedian, opCenter:
		req.Points = w.hot.Pts
	case opUMedian:
		req.Ground, req.Nodes = w.unc.Ground, w.unc.Nodes
	default:
		return client.Request{}, false // ingest's contents depend on the interleaving
	}
	return req, true
}

// sessionStats are the service's own numbers at the end of a session.
type sessionStats struct {
	hotHitRatio float64 // hot's cache hits / lookups over the session
	rejected503 float64 // dpc_jobs_total{status="rejected"} from /metrics
	diskBytes   float64 // journal directory size
}

// stats reads the service-side counters; call before close.
func (w *serveWorkload) stats(ctx context.Context) (sessionStats, error) {
	var st sessionStats
	info, err := w.remote.Dataset(ctx, dsHot)
	if err != nil {
		return st, err
	}
	hits, misses := info.CacheHits-w.hotHits0, info.CacheMisses-w.hotMisses
	if hits+misses > 0 {
		st.hotHitRatio = float64(hits) / float64(hits+misses)
	}
	if st.rejected503, err = scrapeMetric(ctx, w.base+"/metrics", `dpc_jobs_total{status="rejected"}`); err != nil {
		return st, err
	}
	err = filepath.WalkDir(w.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			st.diskBytes += float64(fi.Size())
		}
		return err
	})
	return st, err
}

// scrapeMetric returns one sample's value from a Prometheus text page.
func scrapeMetric(ctx context.Context, url, sample string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), sample+" "); ok {
			var v float64
			_, err := fmt.Sscanf(rest, "%g", &v)
			return v, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s has no sample %s", url, sample)
}

// stop shuts the listener and drains the server, leaving the journal
// directory in place (restartReplay reads it).
func (w *serveWorkload) stop() error {
	if w.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.hsDone; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	w.hs = nil
	w.remote.Close()
	http.DefaultClient.CloseIdleConnections()
	return errors.Join(err, w.srv.Shutdown(ctx))
}

// restartReplay starts a second server on the stopped session's journal
// and returns how long it took to come up ready — the journal's read path,
// beside the write path the session exercised.
func (w *serveWorkload) restartReplay() (time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.NewChecked(w.cfg)
	d := time.Since(t0)
	if err == nil && !srv.Ready() {
		err = fmt.Errorf("restarted server is not ready")
	}
	if srv != nil {
		srv.Close()
	}
	return d, err
}

func (w *serveWorkload) close() error {
	err := w.stop()
	return errors.Join(err, os.RemoveAll(w.dir))
}
