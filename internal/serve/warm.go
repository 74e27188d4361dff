package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"dpc/internal/dataio"
)

// Background cache warmup: prefill the pooled shard caches of a table
// dataset on the scheduler's spare capacity, so the first job against fresh
// data — or against data a restart just replayed from the journal — does
// not pay the O(n^2/s) metric cost inline. Nothing about a cache is
// persisted: recomputing a triangle is cheaper than reading one back.

// WarmupStats is the background-warmup progress /metrics exposes.
type WarmupStats struct {
	Started    int64 // warmup tasks started
	Done       int64 // warmup tasks finished (complete or preempted)
	Skipped    int64 // warmups dropped because the scheduler queue was full
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
	if d.kind != KindTable {
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
