package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"dpc/internal/dataio"
	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// tableData is a table dataset's state: points in append-friendly chunks.
// Every append adds one sealed chunk instead of copying the table, and
// snapshots are O(1) header copies that stay consistent while ingest
// continues.
type tableData struct {
	chunks [][]metric.Point
	n      int
	// dim pins the point dimension from registration on, so a mismatched
	// append fails cleanly instead of panicking inside a distance
	// computation later.
	dim int
}

// newTable builds a table holding pts as its first chunk (no copy).
func newTable(name string, pts []metric.Point) (*tableData, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("serve: dataset %q has no points", name)
	}
	if err := validatePoints(pts, pts[0].Dim()); err != nil {
		return nil, err
	}
	return &tableData{chunks: [][]metric.Point{pts[:len(pts):len(pts)]}, n: len(pts), dim: pts[0].Dim()}, nil
}

// RegisterTable registers a table dataset holding pts. The registry takes
// ownership of pts (it becomes the first storage chunk; no copy).
func (r *Registry) RegisterTable(name string, pts []metric.Point) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	t, err := newTable(name, pts)
	if err != nil {
		return nil, err
	}
	return r.register(name, KindTable, t)
}

func (t *tableData) info(info *DatasetInfo) {
	info.Points = t.n
	info.Dim = t.dim
}

func (t *tableData) check(name string, pts []metric.Point) error {
	if err := validatePoints(pts, t.dim); err != nil {
		return fmt.Errorf("serve: append to %q: %w", name, err)
	}
	return nil
}

// apply seals the appended points as one new chunk: sealed chunks are
// immutable, running jobs hold chunk-list snapshots capped at their
// length, and nothing is ever copied — append cost is O(appended), not
// O(table). The grown table is a new version.
func (t *tableData) apply(pts []metric.Point) {
	t.chunks = append(t.chunks, pts[:len(pts):len(pts)])
	t.n += len(pts)
}

// record is the whole grown table.
func (t *tableData) record() (walDataset, bool) {
	view := TableView{chunks: t.chunks, n: t.n}
	return walDataset{Points: pointsToRows(view.Flatten()), Dim: t.dim}, true
}

// isTable reports whether d is a table, the one kind with caches to warm.
func isTable(d *Dataset) bool {
	_, ok := d.data.(*tableData)
	return ok
}

// TableView is a consistent point-in-time view of a table dataset: the
// sealed storage chunks as of one version. Taking a view is copy-free
// (chunk headers only, O(1) — the chunk list is append-only and chunks
// are immutable once registered), and the view stays stable while appends
// continue underneath it.
type TableView struct {
	chunks [][]metric.Point
	n      int
}

// Len returns the number of points in the view.
func (v TableView) Len() int { return v.n }

// Flatten materializes the view as one flat point slice (header copies;
// the coordinates themselves are shared with the registry). Jobs flatten
// once to shard and evaluate; callers must not mutate the points.
func (v TableView) Flatten() []metric.Point {
	out := make([]metric.Point, 0, v.n)
	for _, c := range v.chunks {
		out = append(out, c...)
	}
	return out
}

// snapshotTable returns a stable view of a table's current points and the
// version it represents. Appends add chunks past the view's horizon and
// never mutate sealed chunks, so a running job keeps a consistent dataset
// while ingest continues — without copying a single point.
func (d *Dataset) snapshotTable() (TableView, int) {
	t := d.data.(*tableData)
	d.mu.RLock()
	defer d.mu.RUnlock()
	return TableView{chunks: t.chunks[:len(t.chunks):len(t.chunks)], n: t.n}, d.version
}

// run executes the full distributed protocol over in-process loopback
// shards — the same round-robin sharding and configuration as dpc-cluster,
// plus shared shard caches drawn from the pool (which is why it stands its
// fleet up itself instead of through Job.RunLocal).
func (t *tableData) run(ctx context.Context, r *Registry, d *Dataset, spec JobSpec, job jobwire.Job) (*JobResult, error) {
	// The loopback site handlers below solve outside RunOver's reach; hand
	// them the job context directly so CancelJob and Shutdown preempt their
	// solver inner loops, not just the round boundaries.
	job.Core.LocalOpts.Ctx = ctx
	view, version := d.snapshotTable()
	// The same range check the in-process runs apply: a budget covering the
	// whole dataset would "succeed" with zero centers.
	if spec.T >= view.Len() {
		return nil, fmt.Errorf("serve: t = %d out of range [0, %d) for dataset %q", spec.T, view.Len(), d.name)
	}
	data := jobwire.Data{Pts: view.Flatten()}
	sites := spec.Sites
	if sites <= 0 {
		sites = DefaultJobSites
	}
	shards := data.Split(sites).Pts
	// A pooled shard hands its site the shared cache; a shard
	// metric.Memoizes declines gets a nil one and runs raw, exactly as a
	// one-shot run does.
	caches := r.shardCaches(d, version, shards)
	handlers := make([]transport.Handler, len(shards))
	for i := range shards {
		h, err := job.SiteHandler(jobwire.SiteData{Site: i, Pts: shards[i], Cache: caches[i]})
		if err != nil {
			return nil, err
		}
		handlers[i] = h
	}
	tr, err := tree.NewLocal(ctx, transport.KindLoopback, handlers, true, spec.Topology)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	res, err := job.RunOver(ctx, tr, nil)
	if err != nil {
		return nil, err
	}
	return jobResult(job, data, res, transport.KindLoopback), nil
}

// shardKey is the cache-pool key of one shard of a table dataset at a
// version and site count — the sharing granularity of warm triangles.
func shardKey(name string, version, shards, i int) string {
	return fmt.Sprintf("%ss%d/%d", shardVersionPrefix(name, version), shards, i)
}

// shardVersionPrefix is the common prefix of every shard key of one
// dataset version, whatever the site count.
func shardVersionPrefix(name string, version int) string {
	return fmt.Sprintf("%s@v%d/", name, version)
}

// shardCaches returns the shared distance cache for every shard of a table
// dataset at a given version and site count, building missing ones through
// the pool. Shards metric.Memoizes declines (too large, or of a dimension
// that recomputes faster than a memo reads) get nil: the site half builds
// the same raw oracle a one-shot run does.
func (r *Registry) shardCaches(d *Dataset, version int, shards [][]metric.Point) []*metric.DistCache {
	caches := make([]*metric.DistCache, len(shards))
	for i, shard := range shards {
		sp := metric.NewPoints(shard)
		if !metric.Memoizes(sp) {
			continue
		}
		caches[i] = r.pool.Get(shardKey(d.name, version, len(shards), i), func() *metric.DistCache {
			dc := metric.NewDistCache(sp)
			dc.Counters = &d.stats
			return dc
		})
	}
	// The caller snapshotted version some time ago. If an append has
	// replaced it since (or a delete removed the dataset), that reclaim may
	// already have run, and what was just pooled would sit under dead keys
	// until LRU pressure: drop it (the caller keeps its references). If
	// the bump or removal lands after these reads instead, its own reclaim
	// runs after it and covers us.
	d.mu.RLock()
	stale := d.version != version
	d.mu.RUnlock()
	if cur, err := r.Get(d.name); stale || err != nil || cur != d {
		r.pool.InvalidatePrefix(shardVersionPrefix(d.name, version))
	}
	return caches
}

// Background cache warmup: prefill the pooled shard caches of a table
// dataset behind the queued jobs, so the first job against fresh
// data — or against data a restart just replayed from the journal — does
// not pay the O(n^2/s) metric cost inline. Nothing about a cache is
// persisted: recomputing a triangle is cheaper than reading one back.

// WarmupStats is the background-warmup progress /metrics exposes.
type WarmupStats struct {
	Started    int64 // warmup tasks started
	Done       int64 // warmup tasks finished (complete or preempted)
	Skipped    int64 // warmups dropped by a drain before they started
	CellsDone  int64 // cells filled by warmups so far
	CellsTotal int64 // cells targeted by warmups started so far
}

// warmupState is the server-side accounting behind WarmupStats.
type warmupState struct {
	started, done, skipped atomic.Int64
	cellsDone, cellsTotal  atomic.Int64
}

func (w *warmupState) snapshot() WarmupStats {
	return WarmupStats{
		Started:    w.started.Load(),
		Done:       w.done.Load(),
		Skipped:    w.skipped.Load(),
		CellsDone:  w.cellsDone.Load(),
		CellsTotal: w.cellsTotal.Load(),
	}
}

// warmDataset queues a background prefill of a table dataset's shard
// caches; other kinds have none to warm. Best effort by design: the warmup
// waits behind every queued job and never counts against QueueDepth, a
// drain drops it while queued (Skipped) and preempts it mid-fill, as does
// an eviction.
func (s *Server) warmDataset(name string) {
	if d, err := s.reg.Get(name); err != nil || !isTable(d) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.warm.skipped.Add(1)
		return
	}
	s.warmq = append(s.warmq, name)
	s.dispatchLocked()
}

// WarmTable prefills the pooled shard caches of a table dataset at the
// default job sharding, on at most `workers` goroutines. It stops early
// when ctx is cancelled (server drain) or a shard's cache leaves the pool
// (LRU eviction or dataset delete — no point warming an orphan). progress
// and total, when non-nil, receive cells-filled / cells-targeted
// accounting. Returns the number of cells filled by this call.
func (r *Registry) WarmTable(ctx context.Context, name string, workers int, progress, total *atomic.Int64) (int, error) {
	d, err := r.Get(name)
	if err != nil {
		return 0, err
	}
	if !isTable(d) {
		return 0, fmt.Errorf("serve: dataset %q is %s; warmup applies to table datasets", name, d.kind)
	}
	view, version := d.snapshotTable()
	shards := dataio.SplitRoundRobin(view.Flatten(), DefaultJobSites)
	caches := r.shardCaches(d, version, shards)
	filled := 0
	for i, dc := range caches {
		if dc == nil {
			continue // a shard metric.Memoizes declines: nothing to prefill
		}
		if total != nil {
			// Target only the cells actually left to compute: an
			// already-queried cache contributes its remainder, so the
			// done/total gauges converge instead of undercounting forever.
			total.Add(dc.Bytes()/8 - int64(dc.Filled()))
		}
		key := shardKey(d.name, version, len(shards), i)
		filled += dc.PrefillCtx(ctx, workers, func() bool { return r.pool.Has(key) }, progress)
	}
	return filled, nil
}
