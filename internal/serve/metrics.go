package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"dpc/internal/journal"
)

// counters are the server's monotonic job counters.
type counters struct {
	jobsSubmitted     atomic.Int64
	jobsDone          atomic.Int64
	jobsFailed        atomic.Int64
	jobsCanceled      atomic.Int64
	jobsRejected      atomic.Int64
	jobsQuotaRejected atomic.Int64 // submissions bounced by per-client quotas
	jobsExpired       atomic.Int64 // queued jobs past their queue deadline
	jobsEvicted       atomic.Int64 // finished jobs dropped by the TTL GC
	journalAppended   atomic.Int64 // records written to the WAL
	journalReplayed   atomic.Int64 // records replayed at the last Recover
	journalReads      atomic.Int64 // point reads of journaled records (evicted-job fetches)
	snapshots         atomic.Int64 // snapshot checkpoints written by Compact
	segmentsGCd       atomic.Int64 // superseded journal segments deleted
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (hand-rolled — the repository takes no dependencies). Gauges are
// computed from live state; counters are monotonic over the process life.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var queued, running int
	s.mu.Lock()
	for _, id := range s.order {
		switch s.jobs[id].Status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		}
	}
	retained := len(s.order)
	s.mu.Unlock()

	pool := s.reg.Pool().Stats()
	datasets := s.reg.List()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP dpc_uptime_seconds Seconds since the server started.\n")
	p("# TYPE dpc_uptime_seconds gauge\n")
	p("dpc_uptime_seconds %g\n", s.uptime())

	p("# HELP dpc_jobs_total Jobs by terminal disposition.\n")
	p("# TYPE dpc_jobs_total counter\n")
	p("dpc_jobs_total{status=\"submitted\"} %d\n", s.counters.jobsSubmitted.Load())
	p("dpc_jobs_total{status=\"done\"} %d\n", s.counters.jobsDone.Load())
	p("dpc_jobs_total{status=\"failed\"} %d\n", s.counters.jobsFailed.Load())
	p("dpc_jobs_total{status=\"canceled\"} %d\n", s.counters.jobsCanceled.Load())
	p("dpc_jobs_total{status=\"rejected\"} %d\n", s.counters.jobsRejected.Load())
	p("dpc_jobs_total{status=\"quota_rejected\"} %d\n", s.counters.jobsQuotaRejected.Load())
	p("dpc_jobs_total{status=\"expired\"} %d\n", s.counters.jobsExpired.Load())

	p("# HELP dpc_jobs_evicted_total Finished jobs evicted from the in-memory store by the TTL GC (journaled results remain fetchable).\n")
	p("# TYPE dpc_jobs_evicted_total counter\n")
	p("dpc_jobs_evicted_total %d\n", s.counters.jobsEvicted.Load())

	p("# HELP dpc_ready Whether the server accepts mutations (1) or is recovering/draining (0).\n")
	p("# TYPE dpc_ready gauge\n")
	ready := 0
	if s.Ready() {
		ready = 1
	}
	p("dpc_ready %d\n", ready)

	p("# HELP dpc_journal_records_total Write-ahead journal traffic: records appended this life, records replayed at start.\n")
	p("# TYPE dpc_journal_records_total counter\n")
	p("dpc_journal_records_total{event=\"appended\"} %d\n", s.counters.journalAppended.Load())
	p("dpc_journal_records_total{event=\"replayed\"} %d\n", s.counters.journalReplayed.Load())

	p("# HELP dpc_journal_record_reads_total Point reads of journaled records (fetches of TTL-evicted finished jobs).\n")
	p("# TYPE dpc_journal_record_reads_total counter\n")
	p("dpc_journal_record_reads_total %d\n", s.counters.journalReads.Load())

	p("# HELP dpc_snapshot_writes_total Snapshot checkpoints written by compaction.\n")
	p("# TYPE dpc_snapshot_writes_total counter\n")
	p("dpc_snapshot_writes_total %d\n", s.counters.snapshots.Load())

	p("# HELP dpc_snapshot_segments_gcd_total Superseded journal segments deleted by compaction GC.\n")
	p("# TYPE dpc_snapshot_segments_gcd_total counter\n")
	p("dpc_snapshot_segments_gcd_total %d\n", s.counters.segmentsGCd.Load())

	s.mu.Lock()
	jnl := s.jnl
	s.mu.Unlock()
	if comp, ok := jnl.(journal.Compactor); ok {
		p("# HELP dpc_journal_segments Journal segment files currently on disk.\n")
		p("# TYPE dpc_journal_segments gauge\n")
		p("dpc_journal_segments %d\n", comp.Segments())
	}

	p("# HELP dpc_jobs_queued Jobs waiting for a scheduler slot.\n")
	p("# TYPE dpc_jobs_queued gauge\n")
	p("dpc_jobs_queued %d\n", queued)
	p("# HELP dpc_jobs_running Jobs currently solving.\n")
	p("# TYPE dpc_jobs_running gauge\n")
	p("dpc_jobs_running %d\n", running)
	p("# HELP dpc_jobs_retained Jobs retained for GET /v1/jobs.\n")
	p("# TYPE dpc_jobs_retained gauge\n")
	p("dpc_jobs_retained %d\n", retained)

	p("# HELP dpc_datasets Registered datasets.\n")
	p("# TYPE dpc_datasets gauge\n")
	p("dpc_datasets %d\n", len(datasets))

	p("# HELP dpc_cache_pool_bytes Cell bytes held by the shared distance-cache pool.\n")
	p("# TYPE dpc_cache_pool_bytes gauge\n")
	p("dpc_cache_pool_bytes %d\n", pool.Bytes)
	p("# HELP dpc_cache_pool_entries Caches held by the pool.\n")
	p("# TYPE dpc_cache_pool_entries gauge\n")
	p("dpc_cache_pool_entries %d\n", pool.Entries)
	p("# HELP dpc_cache_pool_events_total Pool traffic: get hits, fresh builds, LRU evictions.\n")
	p("# TYPE dpc_cache_pool_events_total counter\n")
	p("dpc_cache_pool_events_total{event=\"hit\"} %d\n", pool.Hits)
	p("dpc_cache_pool_events_total{event=\"build\"} %d\n", pool.Builds)
	p("dpc_cache_pool_events_total{event=\"evict\"} %d\n", pool.Evictions)

	warm := s.warm.snapshot()
	p("# HELP dpc_warmup_tasks_total Background cache-warmup tasks by disposition.\n")
	p("# TYPE dpc_warmup_tasks_total counter\n")
	p("dpc_warmup_tasks_total{state=\"started\"} %d\n", warm.Started)
	p("dpc_warmup_tasks_total{state=\"done\"} %d\n", warm.Done)
	p("dpc_warmup_tasks_total{state=\"skipped\"} %d\n", warm.Skipped)
	p("# HELP dpc_warmup_cells Background cache-warmup progress: cells filled vs targeted.\n")
	p("# TYPE dpc_warmup_cells gauge\n")
	p("dpc_warmup_cells{kind=\"done\"} %d\n", warm.CellsDone)
	p("dpc_warmup_cells{kind=\"total\"} %d\n", warm.CellsTotal)

	p("# HELP dpc_dataset_cache_lookups_total Distance-cache traffic per dataset.\n")
	p("# TYPE dpc_dataset_cache_lookups_total counter\n")
	for _, d := range datasets {
		p("dpc_dataset_cache_lookups_total{dataset=%q,kind=\"hit\"} %d\n", d.Name, d.CacheHits)
		p("dpc_dataset_cache_lookups_total{dataset=%q,kind=\"miss\"} %d\n", d.Name, d.CacheMisses)
	}
}
