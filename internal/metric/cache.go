package metric

import (
	"context"
	"math"
	"sync/atomic"

	"dpc/internal/par"
)

// emptyCell is the "not yet computed" sentinel of the caches: a quiet NaN
// with a payload no real distance computation produces. A metric oracle
// returning exactly this NaN would be recomputed on every call, which is
// harmless (NaN distances are a bug upstream anyway).
const emptyCell = 0x7ff8_0000_dead_c0de

// MaxCachePoints is the largest space the convenience constructors memoize:
// the packed triangle costs ~n^2/2 * 8 bytes (16 MiB at the limit), sized
// so the hot region stays cache-resident — measurements on cheap metrics
// (low-dimensional L2) show a DRAM-resident triangle costs more per lookup
// than recomputing the distance, so past the limit the wrappers pass the
// oracle through unchanged (see Memoizes for the whole policy).
const MaxCachePoints = 2048

// CacheStats counts cache traffic. Attach one to a DistCache or CostCache
// (Counters field) to observe hit/miss behavior — the long-running server uses
// this to prove that jobs against the same dataset share one warm cache.
// Counting is optional precisely because the Dist hot path is a single
// atomic load; a nil Counters keeps it that way.
type CacheStats struct {
	Hits   atomic.Int64 // lookups served from a filled cell
	Misses atomic.Int64 // lookups (or prefill steps) that computed a distance
}

// Snapshot returns the current counter values.
func (cs *CacheStats) Snapshot() (hits, misses int64) {
	return cs.Hits.Load(), cs.Misses.Load()
}

// DistCache memoizes a symmetric distance oracle in a packed
// upper-triangular array, so repeated Dist(i,j) calls cost one computation
// and one load thereafter. Cells fill lazily; Prefill runs a blocked
// parallel fill for workloads that will touch every pair anyway.
//
// The cache is exact: it stores the float64 the underlying oracle returned,
// so cached and uncached runs are bit-identical. It is safe for concurrent
// readers (including concurrent first readers of the same cell: both
// compute the same value and the store is atomic); it implements both Space
// and Costs, like Points.
type DistCache struct {
	S Space
	// Counters, when non-nil, receives hit/miss accounting. Set it before
	// sharing the cache; the counters themselves are concurrency-safe.
	Counters *CacheStats
	n        int
	cells    []uint64 // packed strict upper triangle, atomic access
}

// NewDistCache wraps s in a fresh, empty cache. The underlying oracle must
// be symmetric with zero diagonal (the Space contract); the cache stores
// only i < j and serves Dist(j,i) from the same cell.
func NewDistCache(s Space) *DistCache {
	n := s.N()
	cells := make([]uint64, n*(n-1)/2)
	for i := range cells {
		cells[i] = emptyCell
	}
	return &DistCache{S: s, n: n, cells: cells}
}

// rawMaxDim is the largest dimension at which a point set under a built-in
// metric is served raw: the four-row column kernel and the switch-dispatched
// pair path recompute a low-dimensional distance faster than a memo finds it
// (index arithmetic, an atomic load, the triangle's cache misses, and the
// fill). Measured with BenchmarkMemoCrossover (internal/core) — the repo
// benchmark's median-shards job, 8 sites of 250 points, every site raw,
// on a fresh per-job DistCache (memo), and on a prefilled DistCache per site
// that every job reuses (warm, what a pooled dpc-server shard gives a
// repeated job); ms per job, range of 3 runs of 100 jobs, 2 vCPUs:
//
//	dim    raw          memo         warm
//	 2     17.9-19.6    23.2-26.0    19.5-22.6
//	 3     21.4-25.0    27.4-29.1    23.3-25.8
//	 4     21.8-24.9    25.2-30.8    23.8-25.2
//	 5     26.8-28.3    31.2-32.1    24.9-26.5
//	 6     24.7-26.8    28.8-31.4    25.4-26.4
//	 7     24.0-25.6    27.6-30.2    24.2-25.6
//	 8     23.0-30.1    26.6-33.8    25.0-28.4
//	16     30.8-33.2    27.3-30.2    22.3-25.1
//
// Raw beats a fresh memo through dimension 7 and is level with or ahead of
// the warm cache through 4, but from 5 it no longer beats the warm cache:
// warm is ahead at 5, the two tie from 6 to 8, and warm wins by a quarter at
// 16. The constant is the last dimension where raw loses to neither: past it
// a pooled memo that later jobs reuse is the better side.
const rawMaxDim = 4

// Memoizes reports whether a DistCache over s pays for itself — with
// CacheCosts's size cap, the one memoization policy of the repository: no
// engine option overrides it. CacheSpace and the job server's shard pool
// consult it. It says no above MaxCachePoints and for point sets of
// dimension <= rawMaxDim; every other space (an explicit matrix, a
// collapsed uncertain oracle: anything whose Dist this package cannot price)
// is memoized. The policy never reaches an oracle a caller built itself: a
// DistCache handed in explicitly is used as given, and the one a persistent
// site keeps over its shard (jobwire.persistentCache) is the documented,
// measured exception.
func Memoizes(s Space) bool {
	if s.N() > MaxCachePoints {
		return false
	}
	if p, okp := s.(*Points); okp && p.Dim() <= rawMaxDim {
		return false
	}
	return true
}

// CacheSpace wraps s in a DistCache where Memoizes says one pays, and
// returns s unchanged otherwise.
func CacheSpace(s Space) Space {
	if !Memoizes(s) {
		return s
	}
	return NewDistCache(s)
}

// cell returns the packed index of pair (i, j), i < j.
func (dc *DistCache) cell(i, j int) int {
	// Rows before i hold sum_{r<i} (n-1-r) = i*(2n-i-1)/2 cells.
	return i*(2*dc.n-i-1)/2 + (j - i - 1)
}

// N implements Space.
func (dc *DistCache) N() int { return dc.n }

// Dist implements Space, computing and memoizing on first touch.
func (dc *DistCache) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	c := dc.cell(i, j)
	if bits := atomic.LoadUint64(&dc.cells[c]); bits != emptyCell {
		if dc.Counters != nil {
			dc.Counters.Hits.Add(1)
		}
		return math.Float64frombits(bits)
	}
	if dc.Counters != nil {
		dc.Counters.Misses.Add(1)
	}
	d := dc.S.Dist(i, j)
	atomic.StoreUint64(&dc.cells[c], math.Float64bits(d))
	return d
}

// Clients implements Costs.
func (dc *DistCache) Clients() int { return dc.n }

// Facilities implements Costs.
func (dc *DistCache) Facilities() int { return dc.n }

// Cost implements Costs (self facilities, like Points).
func (dc *DistCache) Cost(c, f int) float64 { return dc.Dist(c, f) }

// Prefill computes every pair with a blocked parallel fill over rows,
// spread across at most `workers` goroutines. After Prefill every Dist call
// is a pure load.
func (dc *DistCache) Prefill(workers int) {
	dc.PrefillCtx(context.Background(), workers, nil, nil)
}

// PrefillCtx is Prefill with cooperative abort and progress accounting —
// the background-warmup entry point of the long-running server. The fill
// stops early (leaving a partially warm cache, which is always safe) when
// ctx is cancelled or when keep, checked once per row, reports false (the
// server passes a "still pooled?" probe so a warmup racing an LRU eviction
// stops burning CPU on an orphaned cache). progress, when non-nil, is
// incremented by the number of cells filled, row by row, so an observer can
// watch the warmup advance. Returns the number of cells this call computed.
func (dc *DistCache) PrefillCtx(ctx context.Context, workers int, keep func() bool, progress *atomic.Int64) int {
	var filled atomic.Int64
	par.For(workers, dc.n, func(i int) {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		if keep != nil && !keep() {
			return
		}
		base := dc.cell(i, i+1)
		row := int64(0)
		for j := i + 1; j < dc.n; j++ {
			c := base + (j - i - 1)
			if atomic.LoadUint64(&dc.cells[c]) == emptyCell {
				if dc.Counters != nil {
					dc.Counters.Misses.Add(1)
				}
				atomic.StoreUint64(&dc.cells[c], math.Float64bits(dc.S.Dist(i, j)))
				row++
			}
		}
		filled.Add(row)
		if progress != nil {
			progress.Add(row)
		}
	})
	return int(filled.Load())
}

// Bytes returns the memory footprint of the cell array — the sizing input
// of CachePool's eviction budget.
func (dc *DistCache) Bytes() int64 { return int64(len(dc.cells)) * 8 }

// Filled reports how many cells have been computed (testing/metrics).
func (dc *DistCache) Filled() int {
	n := 0
	for i := range dc.cells {
		if atomic.LoadUint64(&dc.cells[i]) != emptyCell {
			n++
		}
	}
	return n
}

// CostCache memoizes an arbitrary (possibly asymmetric) client/facility
// cost oracle in a dense clients x facilities array — the rectangular
// sibling of DistCache, for oracles like the compressed graph of Section 5
// where clients and facilities differ and Cost(i,f) != Cost(f,i).
// Concurrency and exactness guarantees are the same as DistCache's.
type CostCache struct {
	C Costs
	// Counters, when non-nil, receives hit/miss accounting (see CacheStats).
	Counters *CacheStats
	nc, nf   int
	cells    []uint64 // row-major clients x facilities, atomic access
}

// NewCostCache wraps c in a fresh, empty cache.
func NewCostCache(c Costs) *CostCache {
	nc, nf := c.Clients(), c.Facilities()
	cells := make([]uint64, nc*nf)
	for i := range cells {
		cells[i] = emptyCell
	}
	return &CostCache{C: c, nc: nc, nf: nf, cells: cells}
}

// CacheCosts wraps c in a CostCache unless the matrix would be too large,
// in which case c is returned unchanged.
func CacheCosts(c Costs) Costs {
	nc, nf := c.Clients(), c.Facilities()
	if nc == 0 || nf == 0 || nc*nf > MaxCachePoints*MaxCachePoints/2 {
		return c
	}
	return NewCostCache(c)
}

// Clients implements Costs.
func (cc *CostCache) Clients() int { return cc.nc }

// Facilities implements Costs.
func (cc *CostCache) Facilities() int { return cc.nf }

// Cost implements Costs, computing and memoizing on first touch.
func (cc *CostCache) Cost(client, facility int) float64 {
	idx := client*cc.nf + facility
	if bits := atomic.LoadUint64(&cc.cells[idx]); bits != emptyCell {
		if cc.Counters != nil {
			cc.Counters.Hits.Add(1)
		}
		return math.Float64frombits(bits)
	}
	if cc.Counters != nil {
		cc.Counters.Misses.Add(1)
	}
	d := cc.C.Cost(client, facility)
	atomic.StoreUint64(&cc.cells[idx], math.Float64bits(d))
	return d
}

// Filled reports how many cells have been computed (testing/metrics).
func (cc *CostCache) Filled() int {
	n := 0
	for i := range cc.cells {
		if atomic.LoadUint64(&cc.cells[i]) != emptyCell {
			n++
		}
	}
	return n
}

// Bytes returns the memory footprint of the cell array.
func (cc *CostCache) Bytes() int64 { return int64(len(cc.cells)) * 8 }
