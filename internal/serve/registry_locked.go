package serve

import (
	"fmt"
	"sync"

	"dpc/internal/metric"
)

// SingleLockRegistry preserves the pre-sharding registry as a measured
// baseline, the same way the solver engines keep their Reference
// implementations: one map behind one RWMutex, a mutex-guarded global
// version counter, and copy-on-append table storage (every append copied
// the whole table to protect running snapshots). cmd/dpc-loadgen drives
// it and the segmented Registry through the same TableStore interface and
// reports the throughput ratio in BENCH_SERVE.json — the regression gate
// that proves the sharding pays.
//
// It intentionally supports only the table surface the storage benchmark
// exercises; the serving path always uses Registry.
type SingleLockRegistry struct {
	mu       sync.RWMutex
	ds       map[string]*lockedDataset
	versions int
}

type lockedDataset struct {
	mu      sync.RWMutex
	pts     []metric.Point
	version int
	dim     int
}

// NewSingleLockRegistry creates the baseline registry.
func NewSingleLockRegistry() *SingleLockRegistry {
	return &SingleLockRegistry{ds: make(map[string]*lockedDataset)}
}

// nextVersion replicates the seed behavior: every version draw takes the
// registry-wide write lock — the contention point the segmented registry
// replaces with one atomic add.
func (r *SingleLockRegistry) nextVersion() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.versions++
	return r.versions
}

// TableStore is the registry surface cmd/dpc-loadgen's storage benchmark
// drives, implemented by both the segmented Registry and the single-lock
// baseline so the identical workload measures both.
type TableStore interface {
	// StoreRegister registers a table dataset.
	StoreRegister(name string, pts []metric.Point) error
	// StoreAppend appends points to a table dataset.
	StoreAppend(name string, pts []metric.Point) error
	// StoreSnapshot takes a consistent read snapshot, returning its size.
	StoreSnapshot(name string) (int, error)
	// StoreDelete removes a dataset.
	StoreDelete(name string) error
}

// StoreRegister implements TableStore.
func (r *SingleLockRegistry) StoreRegister(name string, pts []metric.Point) error {
	if err := validateName(name); err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("serve: dataset %q has no points", name)
	}
	if err := validatePoints(pts, pts[0].Dim()); err != nil {
		return err
	}
	d := &lockedDataset{pts: pts, version: r.nextVersion(), dim: pts[0].Dim()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ds[name]; ok {
		return fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetExists)
	}
	r.ds[name] = d
	return nil
}

// StoreAppend implements TableStore with the seed's copy-on-append.
func (r *SingleLockRegistry) StoreAppend(name string, pts []metric.Point) error {
	r.mu.RLock()
	d, ok := r.ds[name]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetNotFound)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := validatePoints(pts, d.dim); err != nil {
		return err
	}
	grown := make([]metric.Point, 0, len(d.pts)+len(pts))
	grown = append(grown, d.pts...)
	grown = append(grown, pts...)
	d.pts = grown
	d.version = r.nextVersion()
	return nil
}

// StoreSnapshot implements TableStore.
func (r *SingleLockRegistry) StoreSnapshot(name string) (int, error) {
	r.mu.RLock()
	d, ok := r.ds[name]
	r.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetNotFound)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	snap := d.pts[:len(d.pts):len(d.pts)]
	return len(snap), nil
}

// StoreDelete implements TableStore.
func (r *SingleLockRegistry) StoreDelete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ds[name]; !ok {
		return fmt.Errorf("serve: dataset %q: %w", name, ErrDatasetNotFound)
	}
	delete(r.ds, name)
	return nil
}

// TableStore adapters on the segmented Registry.

// StoreRegister implements TableStore.
func (r *Registry) StoreRegister(name string, pts []metric.Point) error {
	_, err := r.RegisterTable(name, pts)
	return err
}

// StoreAppend implements TableStore.
func (r *Registry) StoreAppend(name string, pts []metric.Point) error {
	d, err := r.Get(name)
	if err != nil {
		return err
	}
	_, err = r.appendLocked(d, pts, nil)
	return err
}

// StoreSnapshot implements TableStore.
func (r *Registry) StoreSnapshot(name string) (int, error) {
	d, err := r.Get(name)
	if err != nil {
		return 0, err
	}
	view, _ := d.snapshotTable()
	return view.Len(), nil
}

// StoreDelete implements TableStore.
func (r *Registry) StoreDelete(name string) error {
	return r.Delete(name)
}
