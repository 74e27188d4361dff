// Package serve implements the long-running clustering service behind
// cmd/dpc-server: a registry of named datasets, an HTTP/JSON job API, and a
// bounded scheduler that runs many (k, t, objective) queries against the
// same site-held data — the "repeated service over distributed data"
// reading of Guha–Li–Zhang, where the expensive state (datasets, memoized
// distance oracles, site connections) stays warm across queries instead of
// being rebuilt per CLI invocation.
//
// Four dataset kinds cover the paper's deployment modes:
//
//   - table: points held in server memory, jobs run the full distributed
//     protocol over in-process loopback shards; every job that queries the
//     same (dataset, sharding) reuses one shared metric.DistCache per
//     shard, drawn from an LRU-bounded metric.CachePool.
//   - stream: an internal/stream sketch absorbs incremental ingest in
//     O(chunk + k + t) memory; jobs answer (k, t) queries on the summary.
//   - remote: the data lives in dpc-site daemons holding persistent TCP
//     connections — possibly several independent site groups serving one
//     dataset at once; jobs fan the coordinator protocol out over the
//     existing transport, and the sites keep their own caches warm.
//   - uncertain: Section 5 distribution-valued nodes over a shared ground
//     set; jobs run Algorithm 3/4 over loopback node shards.
//
// The registry itself is sharded: dataset names hash onto fixed segments,
// each owning its slice of the namespace behind its own lock, so
// concurrent register/append/lookup/delete traffic scales with cores
// instead of serializing on one registry-wide mutex
// (TestRegistryConcurrentStress hammers it under the race detector; the
// repository benchmark's serve-mixed workload prices it).
// Table points live in append-friendly chunks: every append adds sealed
// chunks instead of copying the table, and snapshots are O(1) header
// copies that stay consistent while ingest continues.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/stream"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// ErrDatasetExists marks duplicate-name registrations (HTTP 409, where
// plain validation failures are 400).
var ErrDatasetExists = errors.New("dataset already exists")

// ErrDatasetNotFound marks lookups of unregistered dataset names; the HTTP
// layer maps it to 404 with the stable code "dataset_not_found".
var ErrDatasetNotFound = errors.New("no such dataset")

// DatasetKind names a dataset's storage/execution mode.
type DatasetKind string

// Dataset kinds.
const (
	// KindTable holds points in server memory; jobs run the distributed
	// protocol over loopback shards with pooled shared distance caches.
	KindTable DatasetKind = "table"
	// KindStream holds an internal/stream sketch; points append
	// incrementally and jobs query the summary.
	KindStream DatasetKind = "stream"
	// KindRemote holds persistent connections to dpc-site daemons; jobs
	// run the protocol over TCP against data the server never sees.
	KindRemote DatasetKind = "remote"
	// KindUncertain holds Section 5 uncertain data — a shared ground set
	// and distribution-valued nodes; jobs run Algorithm 3/4 over loopback
	// node shards.
	KindUncertain DatasetKind = "uncertain"
)

// RemoteTransport is the transport surface a remote dataset drives per
// job: the protocol rounds plus the per-job re-arm frame. Satisfied by a
// single *transport.Coordinator group and by *transport.Multi when the
// dataset spans several site groups.
type RemoteTransport = jobwire.Fleet

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

// Dataset is one named dataset in the registry.
type Dataset struct {
	mu   sync.RWMutex
	name string
	kind DatasetKind

	// table state: append-only sealed chunks plus the running point count;
	// version is registry-global and bumps on every append, so cache-pool
	// keys of stale shardings — including those of a deleted and
	// re-registered dataset under the same name — can never collide with
	// live ones, and go cold via LRU.
	chunks  [][]metric.Point
	n       int
	version int
	// dim pins the point dimension (table and stream) from registration /
	// first append on, so a mismatched append fails cleanly instead of
	// panicking inside a distance computation later.
	dim int

	// uncertain state: the shared ground set and the registered nodes.
	// Both are immutable after registration (uncertain datasets do not
	// support append — the collapse caches at the sites key on node
	// identity), so jobs read them without taking the dataset lock.
	ground *uncertain.Ground
	nodes  []uncertain.Node

	// stream state. streamMeans records the registration-time objective:
	// the sketch's summary is built for exactly one of median/means, so
	// queries for the other are rejected rather than silently answered
	// with the wrong costs.
	sketch      *stream.Sketch
	streamMeans bool

	// remote state. jobMu serializes protocol runs and group membership
	// changes: one transport serves one run at a time (connection
	// persistence, not multiplexing). remoteGroups keeps the individual
	// coordinator groups so more can join via AddRemoteGroup.
	remote       RemoteTransport
	remoteGroups []*transport.Coordinator
	remoteSites  int
	jobMu        sync.Mutex

	// stats aggregates hit/miss traffic over every shard cache of this
	// dataset — the observable the e2e test asserts cache reuse with.
	stats metric.CacheStats
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Kind returns the dataset kind.
func (d *Dataset) Kind() DatasetKind { return d.kind }

// CacheStats snapshots the dataset's aggregate distance-cache traffic.
func (d *Dataset) CacheStats() (hits, misses int64) {
	return d.stats.Snapshot()
}

// CloseRemote shuts a remote dataset's site connections (sending every
// site the protocol close, ending its ServeJobs loop). No-op for local
// datasets. Jobs in flight finish first: the close takes the job lock.
func (d *Dataset) CloseRemote() error {
	if d.kind != KindRemote || d.remote == nil {
		return nil
	}
	d.jobMu.Lock()
	defer d.jobMu.Unlock()
	return d.remote.Close()
}

// snapshotTable returns a stable view of the current points and the
// version it represents. Appends add chunks past the view's horizon and
// never mutate sealed chunks, so a running job keeps a consistent dataset
// while ingest continues — without copying a single point.
func (d *Dataset) snapshotTable() (TableView, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return TableView{chunks: d.chunks[:len(d.chunks):len(d.chunks)], n: d.n}, d.version
}

// DatasetInfo is the JSON summary of a dataset.
type DatasetInfo struct {
	Name    string      `json:"name"`
	Kind    DatasetKind `json:"kind"`
	Points  int         `json:"points"`
	Dim     int         `json:"dim,omitempty"`
	Version int         `json:"version"`
	// Stream-only: points consumed and summary size after compression.
	Ingested     int `json:"ingested,omitempty"`
	SummarySize  int `json:"summary_size,omitempty"`
	Compressions int `json:"compressions,omitempty"`
	// Remote-only: connected site daemons and independent site groups.
	Sites  int `json:"sites,omitempty"`
	Groups int `json:"groups,omitempty"`
	// Uncertain-only: registered nodes and ground-set size.
	Nodes        int `json:"nodes,omitempty"`
	GroundPoints int `json:"ground_points,omitempty"`
	// Aggregate distance-cache traffic across this dataset's shard caches.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// Info snapshots a dataset summary.
func (d *Dataset) Info() DatasetInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	info := DatasetInfo{Name: d.name, Kind: d.kind, Version: d.version}
	info.CacheHits, info.CacheMisses = d.stats.Snapshot()
	switch d.kind {
	case KindTable:
		info.Points = d.n
		info.Dim = d.dim
	case KindStream:
		info.Ingested = d.sketch.N()
		info.SummarySize = d.sketch.Size()
		info.Compressions = d.sketch.Compressions()
		info.Points = d.sketch.N()
		info.Dim = d.dim
	case KindRemote:
		info.Sites = d.remoteSites
		info.Groups = len(d.remoteGroups)
	case KindUncertain:
		// Points stays zero: nodes are not points, and the ground-set
		// size is reported unambiguously as GroundPoints.
		info.Nodes = len(d.nodes)
		info.GroundPoints = d.ground.N()
		info.Dim = d.dim
	}
	return info
}

// segment is one goroutine-contended slice of the registry namespace: the
// datasets whose names hash here, behind this segment's own lock.
type segment struct {
	mu sync.RWMutex
	ds map[string]*Dataset
}

// DefaultRegistrySegments is the registry's segment count. Sixteen
// segments keep cross-core cache-line traffic low at the concurrency the
// scheduler actually produces.
const DefaultRegistrySegments = 16

// Registry holds the named datasets across hash segments, plus the shared
// cache pool.
type Registry struct {
	segs     []*segment
	pool     *metric.CachePool
	versions atomic.Int64 // monotonic dataset-version source
}

// nextVersion hands out a registry-unique dataset version.
func (r *Registry) nextVersion() int {
	return int(r.versions.Add(1))
}

// NewRegistry creates an empty registry whose cache pool is bounded by
// maxCacheBytes (<= 0 means the pool default).
func NewRegistry(maxCacheBytes int64) *Registry {
	segs := make([]*segment, DefaultRegistrySegments)
	for i := range segs {
		segs[i] = &segment{ds: make(map[string]*Dataset)}
	}
	return &Registry{segs: segs, pool: metric.NewCachePool(maxCacheBytes)}
}

// seg returns the segment owning name.
func (r *Registry) seg(name string) *segment {
	h := fnv.New32a()
	h.Write([]byte(name))
	return r.segs[h.Sum32()%uint32(len(r.segs))]
}

// Pool returns the shared cache pool (metrics/testing).
func (r *Registry) Pool() *metric.CachePool { return r.pool }

// Get returns the named dataset.
func (r *Registry) Get(name string) (*Dataset, error) {
	s := r.seg(name)
	s.mu.RLock()
	d, ok := s.ds[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetNotFound)
	}
	return d, nil
}

// List returns summaries of every dataset, sorted by name.
func (r *Registry) List() []DatasetInfo {
	var all []*Dataset
	for _, s := range r.segs {
		s.mu.RLock()
		for _, d := range s.ds {
			all = append(all, d)
		}
		s.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	infos := make([]DatasetInfo, len(all))
	for i, d := range all {
		infos[i] = d.Info()
	}
	return infos
}

// All returns every dataset sorted by name (the snapshot writer walks
// them; List returns summaries instead).
func (r *Registry) All() []*Dataset {
	var all []*Dataset
	for _, s := range r.segs {
		s.mu.RLock()
		for _, d := range s.ds {
			all = append(all, d)
		}
		s.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return all
}

// Count returns the number of registered datasets (metrics).
func (r *Registry) Count() int {
	n := 0
	for _, s := range r.segs {
		s.mu.RLock()
		n += len(s.ds)
		s.mu.RUnlock()
	}
	return n
}

// Delete removes the named dataset and reclaims its pooled shard caches
// right away (jobs still holding one keep using it safely). Remote
// datasets are not deletable over the API (their connections belong to the
// server process).
func (r *Registry) Delete(name string) error {
	s := r.seg(name)
	s.mu.Lock()
	d, ok := s.ds[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetNotFound)
	}
	if d.kind == KindRemote {
		s.mu.Unlock()
		return fmt.Errorf("serve: dataset %q is remote and cannot be deleted over the API", name)
	}
	delete(s.ds, name)
	s.mu.Unlock()
	r.pool.InvalidatePrefix(name + "@v")
	return nil
}

// register inserts d, rejecting duplicate names.
func (r *Registry) register(d *Dataset) error {
	s := r.seg(d.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ds[d.name]; ok {
		return fmt.Errorf("serve: dataset %q: %w", d.name, ErrDatasetExists)
	}
	s.ds[d.name] = d
	return nil
}

// RegisterTable registers a table dataset holding pts. The registry takes
// ownership of pts (it becomes the first storage chunk; no copy).
func (r *Registry) RegisterTable(name string, pts []metric.Point) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("serve: dataset %q has no points", name)
	}
	if err := validatePoints(pts, pts[0].Dim()); err != nil {
		return nil, err
	}
	d := &Dataset{name: name, kind: KindTable,
		chunks: [][]metric.Point{pts[:len(pts):len(pts)]}, n: len(pts),
		version: r.nextVersion(), dim: pts[0].Dim()}
	if err := r.register(d); err != nil {
		return nil, err
	}
	return d, nil
}

// RegisterStream registers a stream dataset: a sketch for k centers and t
// outliers with the given chunk size (0 = stream default), means switching
// connection costs to squared distances.
func (r *Registry) RegisterStream(name string, k, t, chunk int, means bool, seed int64) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	sk, err := stream.New(stream.Config{K: k, T: t, Chunk: chunk, Means: means,
		Opts: streamOpts(seed)})
	if err != nil {
		return nil, fmt.Errorf("serve: dataset %q: %w", name, err)
	}
	d := &Dataset{name: name, kind: KindStream, sketch: sk, streamMeans: means, version: r.nextVersion()}
	if err := r.register(d); err != nil {
		return nil, err
	}
	return d, nil
}

// RegisterUncertain registers an uncertain dataset: a shared ground set g
// and the distribution-valued nodes over it. Jobs with the u-* objectives
// run Algorithm 3/4 over loopback shards of the nodes.
func (r *Registry) RegisterUncertain(name string, g *uncertain.Ground, nodes []uncertain.Node) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("serve: uncertain dataset %q has an empty ground set", name)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("serve: uncertain dataset %q has no nodes", name)
	}
	dim := g.Pts[0].Dim()
	if err := validatePoints(g.Pts, dim); err != nil {
		return nil, fmt.Errorf("serve: uncertain dataset %q: %w", name, err)
	}
	for j := range nodes {
		if err := nodes[j].Validate(g); err != nil {
			return nil, fmt.Errorf("serve: uncertain dataset %q: node %d: %w", name, j, err)
		}
	}
	d := &Dataset{name: name, kind: KindUncertain, ground: g, nodes: nodes,
		version: r.nextVersion(), dim: dim}
	if err := r.register(d); err != nil {
		return nil, err
	}
	return d, nil
}

// RegisterRemote registers a remote dataset served by sites connected on
// coord — its first (and possibly only) site group. The server (not the
// HTTP API) owns the connections; the registry serializes jobs over them.
// AddRemoteGroup attaches further groups later.
func (r *Registry) RegisterRemote(name string, coord *transport.Coordinator) (*Dataset, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	if coord == nil || coord.Sites() == 0 {
		return nil, fmt.Errorf("serve: remote dataset %q has no sites", name)
	}
	d := &Dataset{name: name, kind: KindRemote, remote: coord,
		remoteGroups: []*transport.Coordinator{coord},
		remoteSites:  coord.Sites(), version: r.nextVersion()}
	if err := r.register(d); err != nil {
		return nil, err
	}
	return d, nil
}

// AddRemoteGroup attaches another connected site group to an existing
// remote dataset, so one dataset's jobs fan out over several independent
// site fleets at once. Global site numbering concatenates the groups in
// attachment order; for bit-parity with a single-fleet run of the same
// shards, the daemons' -site ids must be globally unique across groups
// (per-site solver seeds derive from them). The swap takes the job lock,
// so a protocol run in flight finishes on the old group set.
func (r *Registry) AddRemoteGroup(name string, coord *transport.Coordinator) error {
	if coord == nil || coord.Sites() == 0 {
		return fmt.Errorf("serve: remote group for %q has no sites", name)
	}
	d, err := r.Get(name)
	if err != nil {
		return err
	}
	if d.kind != KindRemote {
		return fmt.Errorf("serve: dataset %q is %s, not remote", name, d.kind)
	}
	d.jobMu.Lock()
	defer d.jobMu.Unlock()
	groups := append(append([]*transport.Coordinator(nil), d.remoteGroups...), coord)
	multi, err := transport.NewMulti(groups...)
	if err != nil {
		return fmt.Errorf("serve: dataset %q: %w", name, err)
	}
	d.mu.Lock()
	d.remoteGroups = groups
	d.remote = multi
	d.remoteSites = multi.Sites()
	d.version = r.nextVersion()
	d.mu.Unlock()
	return nil
}

// Append adds points to a table (sealing them as a new storage chunk and
// bumping the version, so future jobs see the grown dataset; the replaced
// version's shard caches are reclaimed right away) or feeds them to a
// stream sketch. Remote datasets ingest at the sites, not through the
// server.
func (r *Registry) Append(name string, pts []metric.Point) (DatasetInfo, error) {
	return r.AppendJournaled(name, pts, nil)
}

// AppendJournaled is Append with a write-ahead hook: after validation and
// before any state changes, journal (when non-nil) runs under the dataset
// lock. If it fails, nothing is applied — the journaled log and the
// in-memory state never diverge in either direction. Holding the dataset
// lock across the hook also pins journal order to apply order: two
// concurrent appends to one stream sketch journal in exactly the order
// their points entered the sketch, so replay reproduces the summary bit
// for bit.
func (r *Registry) AppendJournaled(name string, pts []metric.Point, journal func() error) (DatasetInfo, error) {
	d, err := r.Get(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	if len(pts) == 0 {
		return DatasetInfo{}, fmt.Errorf("serve: append to %q: no points", name)
	}
	replaced, err := r.appendLocked(d, pts, journal)
	if err != nil {
		return DatasetInfo{}, err
	}
	if replaced != 0 {
		// Jobs take the current version when they start, so the replaced
		// one's pooled caches are dead weight that would otherwise sit in
		// the pool until LRU pressure (jobs still running on them keep
		// their own references). A job that snapshotted before this append
		// and pools its caches after this reclaim drops them itself
		// (shardCaches).
		r.pool.InvalidatePrefix(shardVersionPrefix(name, replaced))
	}
	return d.Info(), nil
}

// appendLocked performs the append under the dataset lock (deferred, so a
// panicking solver path can never wedge the mutex): validate, journal,
// then apply — a record is never written for points that fail validation,
// and points are never applied that the journal did not accept. It returns
// the table version the append replaced (0 for a stream).
func (r *Registry) appendLocked(d *Dataset, pts []metric.Point, journal func() error) (replaced int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.kind {
	case KindTable:
		if err := validatePoints(pts, d.dim); err != nil {
			return 0, fmt.Errorf("serve: append to %q: %w", d.name, err)
		}
	case KindStream:
		// The sketch distance code assumes one dimension; pin it on first
		// append and reject mismatches here, where they fail cleanly.
		dim := d.dim
		if dim == 0 {
			if len(pts[0]) == 0 {
				return 0, fmt.Errorf("serve: append to %q: point 0 is empty", d.name)
			}
			dim = pts[0].Dim()
		}
		if err := validatePoints(pts, dim); err != nil {
			return 0, fmt.Errorf("serve: append to %q: %w", d.name, err)
		}
	case KindUncertain:
		return 0, fmt.Errorf("serve: dataset %q is uncertain; nodes are fixed at registration (register a new dataset to change them)", d.name)
	default:
		return 0, fmt.Errorf("serve: dataset %q is %s; append its data at the sites", d.name, d.kind)
	}
	if journal != nil {
		if err := journal(); err != nil {
			return 0, err
		}
	}
	switch d.kind {
	case KindTable:
		// Seal the appended points as one new chunk: sealed chunks are
		// immutable, running jobs hold chunk-list snapshots capped at their
		// length, and nothing is ever copied — append cost is O(appended),
		// not O(table).
		d.chunks = append(d.chunks, pts[:len(pts):len(pts)])
		d.n += len(pts)
		replaced, d.version = d.version, r.nextVersion()
	case KindStream:
		if d.dim == 0 {
			d.dim = pts[0].Dim()
		}
		for _, p := range pts {
			d.sketch.Add(p)
		}
	}
	return replaced, nil
}

// validateName rejects empty or path-hostile dataset names.
func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty dataset name")
	}
	if len(name) > 128 {
		return fmt.Errorf("serve: dataset name longer than 128 bytes")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("serve: dataset name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return nil
}

// validatePoints checks dimension consistency against dim.
func validatePoints(pts []metric.Point, dim int) error {
	for i, p := range pts {
		if len(p) == 0 {
			return fmt.Errorf("serve: point %d is empty", i)
		}
		if p.Dim() != dim {
			return fmt.Errorf("serve: point %d has dim %d, want %d", i, p.Dim(), dim)
		}
	}
	return nil
}
