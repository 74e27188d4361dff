package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpc/internal/dataio"
	"dpc/internal/journal"
	"dpc/internal/metric"
	"dpc/internal/par"
)

// Config tunes a Server.
type Config struct {
	// MaxConcurrentJobs bounds how many jobs (and background warmups)
	// run at once; the rest wait queued, by priority class and FIFO within
	// one. 0 means one per CPU.
	MaxConcurrentJobs int
	// QueueDepth bounds how many submitted jobs may wait; a submission
	// past it is rejected with HTTP 503 "queue_full" (backpressure). It
	// counts waiting jobs only: not running ones, not warmups, and not jobs
	// replayed from the journal, which were accepted once already. 0 means
	// 256.
	QueueDepth int
	// MaxCacheBytes bounds the shared distance-cache pool (LRU eviction).
	// 0 means 256 MiB.
	MaxCacheBytes int64
	// MaxBodyBytes bounds one HTTP request body. 0 means 64 MiB.
	MaxBodyBytes int64
	// MaxJobs bounds how many finished jobs are retained for GET (oldest
	// finished jobs are pruned first). 0 means 4096.
	MaxJobs int
	// WarmOnRegister prefills every table dataset's shard caches in the
	// background, on the scheduler's spare capacity: after a registration,
	// and after Recover has replayed the dataset from the journal (clean
	// shutdown or crash alike — caches are never persisted, a restart
	// recomputes them). Individual registrations can opt in with
	// ?warm=true regardless.
	WarmOnRegister bool
	// JournalDir, when set, enables the write-ahead journal: dataset
	// mutations, job submissions, transitions and finished results append
	// to rotating segment files (journal-000001.dpcj, …) under JournalDir,
	// and Recover replays them so a restarted server resumes its queue and
	// re-serves finished results with zero recompute. Shutdown seals the
	// journal (clean-shutdown marker).
	JournalDir string
	// JournalSync fsyncs every journal append (power-loss durability). Off
	// by default: a process kill never loses acknowledged records either
	// way, only the machine dying can.
	JournalSync bool
	// SegmentBytes is the journal's segment-rotation threshold (0 = the
	// journal package's 64 MiB default). Smaller segments mean finer-
	// grained GC after a snapshot; TestServerKillReplayAndCompaction uses
	// tiny ones to force multi-segment logs quickly.
	SegmentBytes int64
	// CompactEvery, when positive (and JournalDir is set), writes a
	// snapshot checkpoint on this cadence and GCs the segments it
	// supersedes, bounding both journal size and restart replay time.
	// Server.Compact (POST /v1/admin/compact) triggers one on demand
	// regardless.
	CompactEvery time.Duration
	// DeferRecovery skips replay inside NewChecked: the server starts
	// not-ready (mutations rejected with code "not_ready") until the
	// caller runs Recover — how cmd/dpc-server serves /livez while a large
	// journal replays in the background.
	DeferRecovery bool
	// JobTTL evicts finished jobs from the in-memory store this long after
	// they finish (0 = keep until the MaxJobs cap prunes them). Journaled
	// results remain fetchable after eviction via the journal.
	JobTTL time.Duration
	// QuotaBurst enables per-client admission quotas: each client may have
	// this many submissions in flight ahead of its refill budget before
	// Submit rejects with ErrQuotaExceeded (HTTP 429, code
	// "quota_exceeded"). 0 disables quotas.
	QuotaBurst int
	// QuotaPerSec is the per-client token refill rate when QuotaBurst is
	// set (0 means QuotaBurst tokens per second).
	QuotaPerSec float64
	// MaxQueueWait expires jobs still queued after this long with the
	// stable code "queue_deadline_exceeded" (0 = no server-wide deadline;
	// per-job QueueTimeoutMS still applies, and the tighter one wins).
	MaxQueueWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	return c
}

// Server is the long-running clustering service: dataset registry, job
// store, scheduler and HTTP API. Create with New, mount Handler on
// any http server, Shutdown (or Close) to drain.
type Server struct {
	cfg   Config
	reg   *Registry
	mux   *http.ServeMux
	start time.Time

	// slots holds one token per running task (capacity MaxConcurrentJobs);
	// tasks counts the running tasks, so a drain can wait for them.
	slots chan struct{}
	tasks sync.WaitGroup

	// warm is the background-warmup accounting; warmCtx parents every
	// warmup task so a drain preempts them.
	warm       warmupState
	warmCtx    context.Context
	warmCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing and pruning
	seq      int
	draining bool
	queue    jobQueue // queued jobs in dispatch (priority) order
	qseq     int      // FIFO tiebreaker within a priority class
	warmq    []string // datasets waiting for a warmup, behind every queued job
	quotas   *quotas  // per-client admission buckets (guarded by mu)

	// jnl is the write-ahead journal (nil when journaling is off);
	// jnlDir is its segment directory for read-side record lookups.
	// finishIdx maps finished job ids to the durable address of their
	// terminal record (or of the snapshot carrying them), so a fetch of a
	// TTL-evicted result reads one record instead of replaying the log;
	// compaction prunes entries whose records it GC'd. Guarded by mu.
	jnl       journal.Log
	jnlDir    string
	finishIdx map[string]journal.RecordRef
	ready     atomic.Bool
	recovery  RecoveryStats

	// snapMu is the snapshot barrier: dataset mutators hold it shared
	// across their {journal, apply} pair (never nested — journalAppend
	// itself does not take it), and Compact holds it exclusively across
	// {capture state, checkpoint}, so a snapshot plus its suffix always
	// replays to exactly the acknowledged state. Lock order: snapMu
	// before mu or any dataset lock.
	snapMu sync.RWMutex
	// compactedAt is the journalAppended count at the last snapshot; the
	// compaction loop skips a tick when nothing was appended since.
	compactedAt atomic.Int64

	sealOnce sync.Once

	counters counters
}

// New creates a Server ready to accept requests, discarding any recovery
// error (use NewChecked when the caller wants it).
func New(cfg Config) *Server {
	s, _ := NewChecked(cfg)
	return s
}

// NewChecked is New, surfacing the journal replay's error. The server is
// usable even when the error is non-nil (with a broken journal it runs
// journal-less). With DeferRecovery set, NewChecked returns a not-ready
// server immediately and the caller drives Recover itself.
func NewChecked(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		reg:       NewRegistry(cfg.MaxCacheBytes),
		slots:     make(chan struct{}, par.Resolve(cfg.MaxConcurrentJobs)),
		jobs:      make(map[string]*Job),
		finishIdx: make(map[string]journal.RecordRef),
		quotas:    newQuotas(cfg.QuotaBurst, cfg.QuotaPerSec),
		start:     time.Now(),
	}
	s.warmCtx, s.warmCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.routes()
	if cfg.JobTTL > 0 || cfg.MaxQueueWait > 0 {
		go s.gcLoop()
	}
	if cfg.CompactEvery > 0 && cfg.JournalDir != "" {
		go s.compactLoop()
	}
	if cfg.DeferRecovery {
		return s, nil
	}
	return s, s.Recover()
}

// Recover replays the server's durable state — the write-ahead journal —
// and flips the server ready. Until it returns, readiness reports false
// and every mutating call is rejected with ErrNotReady; liveness is
// unaffected, which is the point: a server replaying a big journal answers
// /livez while /readyz says "not yet".
//
// Journal replay re-registers datasets, restores finished jobs (results
// re-servable with zero recompute) and requeues journaled-but-unfinished
// jobs through the scheduler; with WarmOnRegister set it then schedules a
// background warmup of every replayed table. A truncated tail is the
// expected crash signature and is repaired; a corrupt or unreadable journal
// is returned as an error and the server comes up ready but journal-less
// (serving is better than not serving, and the operator sees the error).
func (s *Server) Recover() error {
	var replayErr error
	if s.cfg.JournalDir != "" {
		jl, res, err := journal.OpenDir(s.cfg.JournalDir, journal.DirOptions{
			Sync:         s.cfg.JournalSync,
			SegmentBytes: s.cfg.SegmentBytes,
		})
		if err != nil {
			replayErr = err
		} else {
			// Install the log before replay: requeued jobs may start
			// executing immediately, and their start/finish transitions
			// must journal. Replay itself never journals (its records are
			// already in the log).
			s.mu.Lock()
			s.jnl, s.jnlDir = jl, s.cfg.JournalDir
			s.mu.Unlock()
			stats := s.applyWAL(res.Records)
			stats.Sealed = res.Sealed
			stats.Truncated = res.Truncated
			s.mu.Lock()
			s.recovery = stats
			s.mu.Unlock()
			// Finish an interrupted GC: a crash between Checkpoint and
			// DropBefore leaves superseded segments on disk; replay skipped
			// them, so drop them now.
			if stats.SnapshotSegment > 0 {
				if n, err := jl.DropBefore(stats.SnapshotSegment); err == nil {
					s.counters.segmentsGCd.Add(int64(n))
				}
			}
		}
	}
	s.ready.Store(true)
	return replayErr
}

// Ready reports whether the server accepts mutations (recovery finished,
// not draining).
func (s *Server) Ready() bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return s.ready.Load() && !draining
}

// Recovery returns the last journal replay's summary (zero before
// Recover, or without a journal).
func (s *Server) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Registry exposes the dataset registry (tests inspect datasets and cache
// stats through it).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server with no deadline: new submissions are rejected,
// still-queued jobs are failed with a reason, and running jobs finish
// naturally. Use Shutdown to bound the drain with a deadline.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// shutdownGrace bounds how long Shutdown waits for cancelled solves to
// notice their dead contexts after the drain deadline has already fired.
const shutdownGrace = 5 * time.Second

// Shutdown drains the server: it stops accepting submissions, marks every
// still-queued job failed with an explicit reason (instead of abandoning
// it or silently running it during shutdown), and waits for the running
// jobs. When ctx expires before they finish, their contexts are cancelled
// — each solve aborts at its next protocol round with ctx.Err() — and
// Shutdown returns ctx.Err() once they wind down (bounded by a short
// grace: a solve stuck in a non-preemptible section is abandoned to the
// process exit rather than blocking the shutdown indefinitely).
func (s *Server) Shutdown(ctx context.Context) error {
	// Readiness drops first so balancers stop routing here before the
	// drain starts rejecting.
	s.ready.Store(false)
	// Preempt background warmups first: they hold slots the drain below
	// waits for.
	s.warmCancel()
	// Whatever else happens, the journal is sealed exactly once — after
	// the drain, so finishing jobs get their terminal records in before
	// the clean-shutdown marker.
	defer s.sealOnce.Do(s.sealJournal)
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	var failed []Job
	if !alreadyDraining {
		for _, id := range s.order {
			if j := s.jobs[id]; j.Status == StatusQueued {
				s.endLocked(j, StatusFailed, CodeShuttingDown,
					errors.New("serve: server shutting down before the job started"), &s.counters.jobsFailed)
				failed = append(failed, *j)
			}
		}
		s.queue = nil
		s.warm.skipped.Add(int64(len(s.warmq)))
		s.warmq = nil
	}
	s.mu.Unlock()
	// Journal the drain-failures: the sealed log must replay to the state
	// clients observed, not resurrect jobs they were told failed.
	for i := range failed {
		s.journalFinish(&failed[i])
	}

	// Nothing is dispatched once draining is set, so the wait covers only
	// the tasks already running.
	drained := make(chan struct{})
	go func() {
		s.tasks.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	var swept []string
	s.mu.Lock()
	for _, id := range s.order {
		if j := s.jobs[id]; j.Status == StatusRunning && j.cancel != nil {
			j.cancel()
			swept = append(swept, id)
		}
	}
	s.mu.Unlock()
	// Cancelled solves abort at their next protocol round; a solve inside
	// a non-preemptible section (one coordinator-side solve) can overstay.
	// Give the cancellations a bounded grace instead of holding the
	// shutdown hostage — the caller asked to be out by the deadline, and
	// the worker goroutines die with the process anyway.
	select {
	case <-drained:
	case <-time.After(shutdownGrace):
		return ctx.Err()
	}
	// The deadline fired, but the drain may still have completed cleanly
	// (the last job finished right at the deadline, or the cancel sweep
	// found nothing running). Report an incomplete drain only when the
	// sweep actually cut a job short.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range swept {
		if j, ok := s.jobs[id]; ok && j.Status == StatusCanceled {
			return ctx.Err()
		}
	}
	return nil
}

// WarmupStats snapshots the background-warmup progress (metrics/tests).
func (s *Server) WarmupStats() WarmupStats { return s.warm.snapshot() }

// wantWarm reports whether a successful table registration should kick a
// background warmup: the per-request ?warm=true opt-in, or the server-wide
// WarmOnRegister default (which ?warm=false overrides).
func (s *Server) wantWarm(r *http.Request) bool {
	switch r.URL.Query().Get("warm") {
	case "true", "1":
		return true
	case "false", "0":
		return false
	}
	return s.cfg.WarmOnRegister
}

// routes wires the API surface.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDeleteDataset)
	s.mux.HandleFunc("POST /v1/datasets/{name}/points", s.handleAppendPoints)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/centers.csv", s.handleJobCentersCSV)
	s.mux.HandleFunc("POST /v1/admin/compact", s.handleCompact)
}

// Stable machine-readable error codes of the /v1 API. Clients switch on
// the code, never on the human-readable message (which may change freely).
const (
	CodeBadRequest      = "bad_request"
	CodeDatasetNotFound = "dataset_not_found"
	CodeDatasetExists   = "dataset_exists"
	CodeJobNotFound     = "job_not_found"
	CodeJobNotReady     = "job_not_ready"
	CodeQueueFull       = "queue_full"
	CodeShuttingDown    = "shutting_down"
	// CodeNotReady marks a mutation rejected while the server is still
	// recovering (journal replay, cache staging); a caller retries once
	// /readyz flips.
	CodeNotReady = "not_ready"
	// CodeQuotaExceeded marks a submission rejected by the per-client
	// admission quota (HTTP 429). A per-client verdict, so not retried.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeQueueDeadline marks a job that expired in the queue before a
	// worker picked it up.
	CodeQueueDeadline = "queue_deadline_exceeded"
	// CodeInternal marks a server-side fault (journal write failure) that
	// is neither the client's doing nor retryable elsewhere with different
	// expectations.
	CodeInternal = "internal"
)

// APIErrorBody is the JSON error envelope of every non-2xx response:
// a stable machine-readable code plus a human-readable message.
type APIErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// apiError writes the JSON error envelope.
func apiError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(APIErrorBody{Code: code, Error: err.Error()})
}

// registerError maps registration/lookup errors to (status, code):
// duplicate names are conflicts, unknown names are 404s, everything else
// is a bad request.
func registerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDatasetExists):
		apiError(w, http.StatusConflict, CodeDatasetExists, err)
	case errors.Is(err, ErrDatasetNotFound):
		apiError(w, http.StatusNotFound, CodeDatasetNotFound, err)
	default:
		apiError(w, http.StatusBadRequest, CodeBadRequest, err)
	}
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleHealthz is the legacy combined probe, kept for old scripts: alive
// plus a ready field. New deployments probe /livez and /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"ready":    s.Ready(),
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleLivez reports process liveness: it answers 200 the moment the
// HTTP listener is up, including while a large journal replays.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz reports readiness to take traffic: false (503) while
// recovery is staging and once a drain begins, so balancers and smoke
// scripts wait on state instead of sleeping.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		apiError(w, http.StatusServiceUnavailable, CodeNotReady, errors.New("serve: recovering or draining"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// notReady rejects a mutation on a not-ready server (503, code
// "not_ready"); reads stay available throughout recovery.
func (s *Server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return false
	}
	apiError(w, http.StatusServiceUnavailable, CodeNotReady, errors.New("serve: server recovering, retry shortly"))
	return true
}

// createDatasetRequest is the JSON body of POST /v1/datasets. A text/csv
// body registers a table dataset instead (or, with ?kind=uncertain, an
// uncertain dataset in dataio.ReadNodesCSV's row format), with the name
// taken from the ?name= query parameter. Unknown fields are ignored.
type createDatasetRequest struct {
	Name   string      `json:"name"`
	Kind   DatasetKind `json:"kind,omitempty"` // table (default) | uncertain
	Points [][]float64 `json:"points,omitempty"`
	// Uncertain-only: the distribution-valued nodes. Without Ground, each
	// node carries its own support Points and the ground set is their
	// concatenation, exactly as dataio.ReadNodesCSV builds it. With
	// Ground, nodes reference it by Support index instead — the exact
	// ground set is preserved (shared support points stay shared), which
	// is what the typed client sends so remote solves are byte-identical
	// to local ones on any instance.
	Ground [][]float64 `json:"ground,omitempty"`
	Nodes  []NodeWire  `json:"nodes,omitempty"`
}

func rowsToPoints(rows [][]float64) []metric.Point {
	pts := make([]metric.Point, len(rows))
	for i, row := range rows {
		pts[i] = metric.Point(row)
	}
	return pts
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	// Snapshot barrier: hold the registration and its journal records
	// together so a concurrent checkpoint never captures one without the
	// other (a dataset present in the snapshot AND re-registered by a
	// suffix record would fail replay as a duplicate).
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()

	wd, err := datasetRecord(r, body)
	if err != nil {
		registerError(w, err)
		return
	}
	d, err := s.reg.put(wd)
	if err != nil {
		registerError(w, err)
		return
	}
	s.finishCreateDataset(w, r, d, wd)
}

// datasetRecord parses a POST /v1/datasets body into the registration
// record the journal will hold, carrying only the fields of its kind.
func datasetRecord(r *http.Request, body io.Reader) (wd walDataset, err error) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		name := r.URL.Query().Get("name")
		switch kind := r.URL.Query().Get("kind"); kind {
		case "", string(KindTable):
			pts, err := dataio.ReadPointsCSV(body)
			return walDataset{Name: name, Kind: KindTable, Points: pointsToRows(pts)}, err
		case string(KindUncertain):
			g, nodes, err := dataio.ReadNodesCSV(body)
			if err != nil {
				return wd, err
			}
			return uncertainRecord(name, g, nodes), nil
		default:
			return wd, fmt.Errorf("serve: CSV upload supports kind table or uncertain, not %q", kind)
		}
	}
	var req createDatasetRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return wd, fmt.Errorf("serve: bad dataset body: %w", err)
	}
	switch req.Kind {
	case "", KindTable:
		wd = walDataset{Kind: KindTable, Points: req.Points}
	case KindUncertain:
		wd.Kind = KindUncertain
		wd.Ground, wd.Nodes, err = buildUncertain(req.Ground, req.Nodes)
	case KindRemote:
		err = errors.New("serve: remote datasets are registered by the server process (see dpc-server -sites-listen), not over the API")
	default:
		err = fmt.Errorf("serve: unknown dataset kind %q", req.Kind)
	}
	wd.Name = req.Name
	return wd, err
}

// finishCreateDataset journals a successful registration (rolling it back
// if the journal write fails — an unjournaled dataset would silently
// vanish on restart, which is worse than a loud 500 now), then kicks the
// optional warmup and answers 201.
func (s *Server) finishCreateDataset(w http.ResponseWriter, r *http.Request, d *Dataset, wd walDataset) {
	if _, err := s.journalAppend(recDatasetPut, wd); err != nil {
		s.reg.Delete(d.Name())
		apiError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	if s.wantWarm(r) {
		s.warmDataset(d.Name())
	}
	writeJSON(w, http.StatusCreated, d.Info())
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.reg.List()})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	d, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		apiError(w, http.StatusNotFound, CodeDatasetNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, d.Info())
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	// Snapshot barrier: the delete and its record stay on the same side of
	// any checkpoint (see handleCreateDataset).
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	name := r.PathValue("name")
	// Journal-before-apply: validate the target, land the delete record,
	// then drop the dataset. The old order (delete, then journal) left a
	// hole — a journal failure meant replay resurrected a dataset the
	// client was told is gone. If the apply races a concurrent delete the
	// journal holds a redundant record; replay tolerates delete-of-missing.
	if _, err := s.reg.Get(name); err != nil {
		registerError(w, err)
		return
	}
	if _, err := s.journalAppend(recDatasetDelete, walDelete{Name: name}); err != nil {
		apiError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	if err := s.reg.Delete(name); err != nil {
		registerError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// appendPointsRequest is the JSON body of POST /v1/datasets/{name}/points;
// a text/csv body appends parsed CSV rows instead.
type appendPointsRequest struct {
	Points [][]float64 `json:"points"`
}

func (s *Server) handleAppendPoints(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	name := r.PathValue("name")

	var pts []metric.Point
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		parsed, err := dataio.ReadPointsCSV(body)
		if err != nil {
			apiError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		pts = parsed
	} else {
		var req appendPointsRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			apiError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("serve: bad points body: %w", err))
			return
		}
		pts = rowsToPoints(req.Points)
	}
	// Journal-before-apply under the snapshot barrier: the record lands
	// only after validation but before the points become visible, so a
	// journal failure leaves memory untouched (no acknowledged-but-
	// undurable append, and no unjournaled points squatting in the
	// dataset — appends have no rollback). AppendJournaled runs the hook
	// under the dataset lock, so record order equals apply order.
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	var jerr error
	info, err := s.reg.AppendJournaled(name, pts, func() error {
		_, jerr = s.journalAppend(recDatasetAppend, walAppend{Name: name, Points: pointsToRows(pts)})
		return jerr
	})
	if err != nil {
		if jerr != nil {
			apiError(w, http.StatusInternalServerError, CodeInternal, jerr)
			return
		}
		registerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// Submit enqueues a job (the library entry point behind POST /v1/jobs).
// It validates the spec up front — bad specs and unknown datasets fail
// synchronously, a not-ready server returns ErrNotReady, an exhausted
// client quota ErrQuotaExceeded, a full queue ErrQueueFull, a draining
// server ErrShuttingDown — and returns the queued job's view.
func (s *Server) Submit(spec JobSpec) (Job, error) {
	if !s.ready.Load() {
		return Job{}, ErrNotReady
	}
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	if _, err := s.reg.Get(spec.Dataset); err != nil {
		return Job{}, err
	}

	now := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Job{}, ErrShuttingDown
	}
	if !s.quotas.take(spec.Client, now) {
		s.counters.jobsQuotaRejected.Add(1)
		s.mu.Unlock()
		return Job{}, ErrQuotaExceeded
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		Spec:      spec,
		Status:    StatusQueued,
		Submitted: now,
		deadline:  queueDeadline(spec, now, s.cfg.MaxQueueWait),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.pruneLocked()
	s.mu.Unlock()

	// Journal the submission before the job becomes runnable: once a
	// worker can pick it up, its start/finish records may race ahead of
	// this one, and the log should read submit → start → finish.
	if _, err := s.journalAppend(recJobSubmit, walSubmit{ID: job.ID, Spec: spec, Submitted: now}); err != nil {
		s.mu.Lock()
		s.endLocked(job, StatusFailed, CodeInternal, err, &s.counters.jobsRejected)
		view := *job
		s.mu.Unlock()
		return view, err
	}

	s.mu.Lock()
	if s.draining {
		// A Shutdown racing this submission has failed the job already.
		view := *job
		s.mu.Unlock()
		return view, ErrShuttingDown
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.endLocked(job, StatusFailed, CodeQueueFull, ErrQueueFull, &s.counters.jobsRejected)
		view := *job
		s.mu.Unlock()
		s.journalFinish(&view)
		return view, ErrQueueFull
	}
	s.enqueueLocked(job)
	s.dispatchLocked()
	s.counters.jobsSubmitted.Add(1)
	view := *job
	s.mu.Unlock()
	return view, nil
}

// CompactStats summarizes one compaction pass (the POST /v1/admin/compact
// response body).
type CompactStats struct {
	// Segment is the fresh segment the snapshot checkpoint opened;
	// everything below it was superseded.
	Segment int `json:"segment"`
	// Datasets, Jobs and Queued count what the snapshot captured.
	Datasets int `json:"datasets"`
	Jobs     int `json:"jobs"`
	Queued   int `json:"queued"`
	// SegmentsRemoved is how many superseded segments this pass deleted;
	// Segments is how many remain on disk.
	SegmentsRemoved int `json:"segments_removed"`
	Segments        int `json:"segments"`
}

// Compact writes a snapshot checkpoint — the complete registry and job
// state as one record opening a fresh segment — and deletes the segments
// it supersedes. Replay after it restores from the snapshot plus the
// suffix behind it, so journal size and restart time stay bounded by live
// state, not by history. Requires a directory journal (ErrNoJournal-ish
// error otherwise); safe to call concurrently with serving traffic.
func (s *Server) Compact() (CompactStats, error) {
	s.mu.Lock()
	jnl := s.jnl
	s.mu.Unlock()
	comp, ok := jnl.(journal.Compactor)
	if !ok {
		return CompactStats{}, errors.New("serve: compaction requires a segmented journal (start with -journal-dir)")
	}
	// Read the append count before the snapshot: appends that land while
	// it is built count as new work for the next cadence check.
	appended := s.counters.journalAppended.Load()

	// Exclusive barrier: no {journal, apply} pair is in flight while the
	// state is captured and the checkpoint written, so snapshot + suffix
	// replays to exactly the acknowledged state. A job's finish in execute
	// is such a pair (journal, then publish), so the snapshot never records
	// as running a job whose finish record it supersedes. The other job
	// transitions apply before journaling without the barrier: the
	// snapshot's view is then a superset of any job record it supersedes,
	// and replay dedupes by job id.
	s.snapMu.Lock()
	snap := s.buildSnapshot()
	payload, err := json.Marshal(snap)
	if err != nil {
		s.snapMu.Unlock()
		return CompactStats{}, fmt.Errorf("serve: snapshot encode: %w", err)
	}
	ref, err := comp.Checkpoint(recSnapshot, payload)
	s.snapMu.Unlock()
	if err != nil {
		return CompactStats{}, fmt.Errorf("serve: snapshot checkpoint: %w", err)
	}
	s.counters.snapshots.Add(1)
	s.compactedAt.Store(appended)

	// Re-point the finish index before the GC: snapshot-carried jobs now
	// resolve via the checkpoint record; entries still referencing
	// soon-to-be-deleted segments are dropped (their jobs were TTL-evicted
	// before this snapshot, so their results leave the log with the
	// segments that held them).
	s.mu.Lock()
	for i := range snap.Jobs {
		s.finishIdx[snap.Jobs[i].ID] = ref
	}
	for id, r := range s.finishIdx {
		if r.Seg < ref.Seg {
			delete(s.finishIdx, id)
		}
	}
	s.mu.Unlock()

	removed, err := comp.DropBefore(ref.Seg)
	if err != nil {
		return CompactStats{}, fmt.Errorf("serve: segment GC: %w", err)
	}
	s.counters.segmentsGCd.Add(int64(removed))
	return CompactStats{
		Segment:  ref.Seg,
		Datasets: len(snap.Datasets),
		Jobs:     len(snap.Jobs),
		Queued:   len(snap.Queued),

		SegmentsRemoved: removed,
		Segments:        comp.Segments(),
	}, nil
}

// compactLoop drives the CompactEvery cadence: one compaction per tick,
// skipped while the server is still recovering or when nothing was
// journaled since the last snapshot (an idle server does not rewrite its
// checkpoint forever). Exits with warmCtx on Shutdown.
func (s *Server) compactLoop() {
	tick := time.NewTicker(s.cfg.CompactEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.warmCtx.Done():
			return
		case <-tick.C:
			if !s.ready.Load() {
				continue
			}
			if s.counters.journalAppended.Load() == s.compactedAt.Load() {
				continue
			}
			s.Compact()
		}
	}
}

// handleCompact triggers one on-demand compaction (POST /v1/admin/compact).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	stats, err := s.Compact()
	if err != nil {
		apiError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// sealJournal writes the clean-shutdown marker and closes the log.
func (s *Server) sealJournal() {
	s.mu.Lock()
	jnl := s.jnl
	s.mu.Unlock()
	if jnl != nil {
		jnl.Seal()
	}
}

// pruneLocked drops the oldest finished jobs above the retention cap.
func (s *Server) pruneLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCanceled {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything retained is still queued or running
		}
	}
}

// GetJob returns a snapshot of the job by id. Jobs evicted from the
// in-memory store by the TTL GC are looked up in the journal — a
// journaled finished result stays fetchable for the log's lifetime.
func (s *Server) GetJob(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		view := *j
		s.mu.Unlock()
		return view, nil
	}
	s.mu.Unlock()
	if j, ok := s.jobFromJournal(id); ok {
		return j, nil
	}
	return Job{}, fmt.Errorf("serve: no job %q", id)
}

// ListJobs returns snapshots of retained jobs in submission order.
func (s *Server) ListJobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	var spec JobSpec
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		apiError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("serve: bad job body: %w", err))
		return
	}
	if spec.Client == "" {
		spec.Client = r.Header.Get("X-DPC-Client")
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrNotReady):
		apiError(w, http.StatusServiceUnavailable, CodeNotReady, errors.New("serve: server recovering, retry shortly"))
	case errors.Is(err, ErrQuotaExceeded):
		apiError(w, http.StatusTooManyRequests, CodeQuotaExceeded, fmt.Errorf("serve: client %q over its submission quota, retry later", spec.Client))
	case errors.Is(err, ErrQueueFull):
		apiError(w, http.StatusServiceUnavailable, CodeQueueFull, errors.New("serve: job queue full, retry later"))
	case errors.Is(err, ErrShuttingDown):
		apiError(w, http.StatusServiceUnavailable, CodeShuttingDown, errors.New("serve: server shutting down"))
	case errors.Is(err, ErrDatasetNotFound):
		apiError(w, http.StatusNotFound, CodeDatasetNotFound, err)
	case err != nil:
		apiError(w, http.StatusBadRequest, CodeBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, job)
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.ListJobs()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.GetJob(r.PathValue("id"))
	if err != nil {
		apiError(w, http.StatusNotFound, CodeJobNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleCancelJob cancels a queued or running job; finished jobs are
// returned unchanged (cancel is idempotent).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.CancelJob(r.PathValue("id"))
	if err != nil {
		apiError(w, http.StatusNotFound, CodeJobNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobCentersCSV serves a finished job's centers in exactly the CSV
// format dpc-cluster writes, so `diff` against a CLI run is byte-exact.
func (s *Server) handleJobCentersCSV(w http.ResponseWriter, r *http.Request) {
	job, err := s.GetJob(r.PathValue("id"))
	if err != nil {
		apiError(w, http.StatusNotFound, CodeJobNotFound, err)
		return
	}
	if job.Status != StatusDone {
		apiError(w, http.StatusConflict, CodeJobNotReady, fmt.Errorf("serve: job %s is %s", job.ID, job.Status))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	dataio.WritePointsCSV(w, rowsToPoints(job.Result.Centers))
}

// uptime reports seconds since start (metrics).
func (s *Server) uptime() float64 { return time.Since(s.start).Seconds() }
