// Package serve implements the long-running clustering service behind
// cmd/dpc-server: a registry of named datasets, an HTTP/JSON job API, and a
// bounded scheduler that runs many (k, t, objective) queries against the
// same site-held data — the "repeated service over distributed data"
// reading of Guha–Li–Zhang, where the expensive state (datasets, memoized
// distance oracles, site connections) stays warm across queries instead of
// being rebuilt per CLI invocation.
//
// Three dataset kinds cover the paper's deployment modes, each in its own
// file implementing kindData behind the shared Dataset header:
//
//   - table.go: points in server memory; jobs run the distributed protocol
//     over loopback shards that share pooled distance caches.
//   - remote.go: persistent connections to dpc-site daemons holding the
//     data; jobs run the protocol over TCP.
//   - uncertain.go: Section 5 nodes over a shared ground set; jobs run
//     Algorithm 3/4 over loopback node shards.
//
// Every journaled kind is built from its journal record (Registry.put),
// whether the record comes from an API call or from replay.
//
// The registry itself is sharded: dataset names hash onto fixed segments,
// each owning its slice of the namespace behind its own lock, so
// concurrent register/append/lookup/delete traffic scales with cores
// instead of serializing on one registry-wide mutex
// (TestRegistryConcurrentStress hammers it under the race detector; the
// repository benchmark's serve-mixed workload prices it).
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"dpc/internal/jobwire"
	"dpc/internal/metric"
)

// ErrDatasetExists marks duplicate-name registrations (HTTP 409, where
// plain validation failures are 400).
var ErrDatasetExists = errors.New("dataset already exists")

// ErrDatasetNotFound marks lookups of unregistered dataset names; the HTTP
// layer maps it to 404 with the stable code "dataset_not_found".
var ErrDatasetNotFound = errors.New("no such dataset")

// DatasetKind names a dataset's storage/execution mode.
type DatasetKind string

// Dataset kinds, each implemented in the file of its name.
const (
	KindTable     DatasetKind = "table"
	KindRemote    DatasetKind = "remote"
	KindUncertain DatasetKind = "uncertain"
)

// Dataset is one named dataset in the registry: a header every kind
// shares — name, kind, version, lock and cache counters — in front of the
// kind's own state.
type Dataset struct {
	mu   sync.RWMutex
	name string
	kind DatasetKind
	// version is registry-global and bumps whenever a table grows, so
	// cache-pool keys of stale shardings — including those of a deleted
	// and re-registered dataset under the same name — can never collide
	// with live ones, and go cold via LRU.
	version int
	// data is the kind's state, guarded by mu.
	data kindData

	// stats aggregates hit/miss traffic over every shard cache of this
	// dataset — the observable the e2e test asserts cache reuse with.
	stats metric.CacheStats
}

// kindData is one dataset kind's state and behaviour. The registry calls
// info and record under the dataset's read lock, check and apply under
// its write lock; run takes the locks it needs itself.
type kindData interface {
	// info fills the kind's fields of a summary.
	info(*DatasetInfo)
	// check validates an append without changing anything; apply adds the
	// checked points once the journal has accepted their record (never
	// for a kind whose check refuses every append).
	check(name string, pts []metric.Point) error
	apply(pts []metric.Point)
	run(ctx context.Context, r *Registry, d *Dataset, spec JobSpec, job jobwire.Job) (*JobResult, error)
	// record is the kind's full current state as a snapshot record (the
	// header fills Name and Kind), or false for a kind the journal does
	// not hold.
	record() (walDataset, bool)
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Kind returns the dataset kind.
func (d *Dataset) Kind() DatasetKind { return d.kind }

// CacheStats snapshots the dataset's aggregate distance-cache traffic.
func (d *Dataset) CacheStats() (hits, misses int64) {
	return d.stats.Snapshot()
}

// DatasetInfo is the JSON summary of a dataset.
type DatasetInfo struct {
	Name    string      `json:"name"`
	Kind    DatasetKind `json:"kind"`
	Points  int         `json:"points"`
	Dim     int         `json:"dim,omitempty"`
	Version int         `json:"version"`
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
	d.data.info(&info)
	return info
}

// record returns the dataset's snapshot record, false for unjournaled kinds.
func (d *Dataset) record() (walDataset, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	wd, ok := d.data.record()
	wd.Name, wd.Kind = d.name, d.kind
	return wd, ok
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
	all := r.All()
	infos := make([]DatasetInfo, len(all))
	for i, d := range all {
		infos[i] = d.Info()
	}
	return infos
}

// All returns every dataset sorted by name.
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

// Count returns the number of registered datasets.
func (r *Registry) Count() int { return len(r.All()) }

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
	if _, ok := d.asRemote(); ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: dataset %q is remote and cannot be deleted over the API", name)
	}
	delete(s.ds, name)
	s.mu.Unlock()
	r.pool.InvalidatePrefix(name + "@v")
	return nil
}

// register inserts a new dataset of the given kind and state, rejecting
// duplicate names.
func (r *Registry) register(name string, kind DatasetKind, data kindData) (*Dataset, error) {
	d := &Dataset{name: name, kind: kind, version: r.nextVersion(), data: data}
	s := r.seg(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ds[name]; ok {
		return nil, fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetExists)
	}
	s.ds[name] = d
	return d, nil
}

// put registers the dataset a journal record describes. It is the one
// way a journaled dataset comes to exist: POST /v1/datasets builds the
// record it journals and registers it here, and replay does the same with
// the records it reads, so the journal holds exactly what was registered.
// A registration record rebuilds what the API call created; a snapshot
// record restores the kind's full state (a grown table). A record of a
// kind this server does not build (a retired one, such as an old
// journal's "stream") is an error naming the kind, which replay reports
// and skips.
func (r *Registry) put(wd walDataset) (*Dataset, error) {
	if err := validateName(wd.Name); err != nil {
		return nil, err
	}
	var data kindData
	var err error
	switch wd.Kind {
	case KindTable:
		data, err = newTable(wd.Name, rowsToPoints(wd.Points))
	case KindUncertain:
		data, err = newUncertain(wd)
	default:
		err = fmt.Errorf("serve: unknown dataset kind %q", wd.Kind)
	}
	if err != nil {
		return nil, err
	}
	return r.register(wd.Name, wd.Kind, data)
}

// Append adds points to a dataset that takes appends (a table) without
// journaling them: AppendJournaled with no hook.
func (r *Registry) Append(name string, pts []metric.Point) (DatasetInfo, error) {
	return r.AppendJournaled(name, pts, nil)
}

// AppendJournaled is Append with a write-ahead hook: after validation and
// before any state changes, journal (when non-nil) runs under the dataset
// lock. If it fails, nothing is applied — the journaled log and the
// in-memory state never diverge in either direction. Holding the dataset
// lock across the hook also pins journal order to apply order: two
// concurrent appends to one table journal in exactly the order their
// chunks were sealed, so replay rebuilds the same point order.
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
	// Jobs take the current version when they start, so the replaced one's
	// pooled caches are dead weight that would otherwise sit in the pool
	// until LRU pressure (jobs still running on them keep their own
	// references). A job that snapshotted before this append and pools its
	// caches after this reclaim drops them itself (shardCaches).
	r.pool.InvalidatePrefix(shardVersionPrefix(name, replaced))
	return d.Info(), nil
}

// appendLocked performs the append under the dataset lock (deferred, so a
// panicking solver path can never wedge the mutex): check, journal, then
// apply — a record is never written for points that fail validation, and
// points are never applied that the journal did not accept. Every applied
// append is a new version; it returns the version the append replaced.
func (r *Registry) appendLocked(d *Dataset, pts []metric.Point, journal func() error) (replaced int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.data.check(d.name, pts); err != nil {
		return 0, err
	}
	if journal != nil {
		if err := journal(); err != nil {
			return 0, err
		}
	}
	d.data.apply(pts)
	replaced, d.version = d.version, r.nextVersion()
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
