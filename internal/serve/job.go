package serve

import (
	"context"
	"fmt"
	"math"
	"time"

	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/jobwire"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

// JobSpec is the JSON body of POST /v1/jobs: one (k, t, objective) query
// against a registered dataset. Zero values select the same defaults
// dpc-cluster uses, so a job with only {dataset, k, t, seed} set reproduces
// a one-shot CLI run bit for bit.
type JobSpec struct {
	Dataset string `json:"dataset"`
	K       int    `json:"k"`
	T       int    `json:"t"`
	// Objective is median (default), means or center for point datasets,
	// or one of the Section 5 uncertain objectives — u-median, u-means,
	// u-centerpp, u-centerg — for uncertain datasets.
	Objective string `json:"objective,omitempty"`
	Variant   string `json:"variant,omitempty"` // 2round (default) | 1round | noship
	// Sites is the loopback shard count for table and uncertain datasets
	// (default 8, matching dpc-cluster; capped at MaxJobSites). Ignored for
	// remote datasets: the connected daemons are the sharding.
	Sites int     `json:"sites,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Engine is the engine knob object: algorithm, workers, reference —
	// any setting but the algorithm returns bit-identical results. It
	// marshals as the object form ({"algo":"jv","workers":4}) and also
	// unmarshals from the string form ("jv") of old request bodies and
	// journal records; an unknown algorithm fails the decode. The retired
	// top-level "workers" and "no_cache" keys and the retired engine
	// "no_cache" / "index" / "pivots" keys are ignored on decode, which is
	// safe because those knobs never changed results.
	Engine      engine.Spec `json:"engine,omitempty"`
	LloydPolish bool        `json:"lloyd_polish,omitempty"`
	// Client names the submitting client for per-client admission quotas
	// (empty falls back to the X-DPC-Client header, then to "anonymous").
	// Identity only — results never depend on it.
	Client string `json:"client,omitempty"`
	// Priority picks the scheduling class: high | normal (default) | low.
	// Higher classes dequeue first; FIFO within a class.
	Priority string `json:"priority,omitempty"`
	// QueueTimeoutMS expires the job if it is still queued after this many
	// milliseconds (stable error code "queue_deadline_exceeded"). Zero
	// means the server-wide default, if any.
	QueueTimeoutMS int `json:"queue_timeout_ms,omitempty"`
	// Topology selects the coordinator fan-in of the in-process protocols:
	// star (default) or an aggregation tree ("tree,branch=8" or
	// {"tree":true,"branch":8}). Centers are byte-identical either way; the
	// tree changes only the physical per-level traffic.
	Topology tree.Spec `json:"topology,omitempty"`
}

// MaxJobSites caps JobSpec.Sites: each simulated site costs a goroutine
// and per-shard state, so an unbounded request could allocate the server
// to death. Real deployments in the paper's regime run tens of sites.
const MaxJobSites = 4096

// DefaultJobSites is the loopback shard count when JobSpec.Sites is zero —
// the same default dpc-cluster uses, and the sharding background warmup
// prefills.
const DefaultJobSites = 8

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Job is one submitted job and its lifecycle. Fields are guarded by the
// owning Server's job lock; handlers read snapshots via view().
type Job struct {
	ID     string  `json:"id"`
	Spec   JobSpec `json:"spec"`
	Status string  `json:"status"`
	Error  string  `json:"error,omitempty"`
	// ErrorCode is the stable machine-readable class of a failure
	// (e.g. "queue_deadline_exceeded"); clients switch on it, never on
	// Error's wording.
	ErrorCode string     `json:"error_code,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Replayed marks a job restored from the journal after a restart —
	// its result (if any) was re-served with zero recompute.
	Replayed bool `json:"replayed,omitempty"`

	// cancel aborts the running solve (set while the job executes; guarded
	// by the server's job lock; unexported, so never serialized).
	cancel context.CancelFunc
	// deadline is the queue-time expiry instant (zero = none); guarded by
	// the server's job lock.
	deadline time.Time
}

// JobResult is a finished job's payload.
type JobResult struct {
	Centers [][]float64 `json:"centers"`
	// OutlierBudget is how many (weighted) points the solution may ignore.
	OutlierBudget float64 `json:"outlier_budget"`
	// Cost is the solution's objective value; CostKind says against what:
	// "global" (the full dataset, the measuring stick of core.Evaluate),
	// "estimate" (u-centerg's seeded Monte Carlo) or "coordinator" (the
	// coordinator's induced instance — remote data never reaches the
	// server, so the true global cost is evaluated site-side if at all).
	Cost     float64 `json:"cost"`
	CostKind string  `json:"cost_kind"`
	// Communication footprint (distributed jobs only).
	Rounds      int    `json:"rounds,omitempty"`
	UpBytes     int64  `json:"up_bytes,omitempty"`
	DownBytes   int64  `json:"down_bytes,omitempty"`
	SiteBudgets []int  `json:"site_budgets,omitempty"`
	Transport   string `json:"transport,omitempty"`
	// Tau is u-centerg's chosen truncation threshold (a lower-bound
	// witness; zero for every other objective).
	Tau float64 `json:"tau,omitempty"`
	// Dataset cache traffic after this job (aggregate over the dataset's
	// shard caches — reuse shows up as hits growing while misses stay put).
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	DurationMS  float64 `json:"duration_ms"`
}

// ObjectiveKind maps an API objective string to the job kind it runs:
// point (Algorithm 1/2) or uncertain (Algorithm 3, or Algorithm 4 for
// u-centerg). It is the single source of truth shared by the HTTP layer,
// the client package and the CLI flag surface.
func ObjectiveKind(objective string) (jobwire.Kind, error) {
	switch objective {
	case "", "median", "means", "center":
		return jobwire.KindPoint, nil
	case "u-median", "u-means", "u-centerpp", "u-centerg":
		return jobwire.KindUncertain, nil
	}
	return 0, fmt.Errorf("serve: unknown objective %q (want median, means, center, u-median, u-means, u-centerpp or u-centerg)", objective)
}

// parseObjective maps the API objective string to core's enum.
func parseObjective(s string) (core.Objective, error) {
	switch s {
	case "", "median":
		return core.Median, nil
	case "means":
		return core.Means, nil
	case "center":
		return core.Center, nil
	}
	return 0, fmt.Errorf("serve: unknown objective %q (want median, means or center)", s)
}

// parseUncertainObjective maps the API u-* objective to uncertain's enum.
func parseUncertainObjective(s string) (uncertain.Objective, error) {
	switch s {
	case "u-median":
		return uncertain.Median, nil
	case "u-means":
		return uncertain.Means, nil
	case "u-centerpp":
		return uncertain.CenterPP, nil
	case "u-centerg":
		return uncertain.CenterG, nil
	}
	return 0, fmt.Errorf("serve: unknown uncertain objective %q (want u-median, u-means, u-centerpp or u-centerg)", s)
}

// parseUncertainVariant maps the API variant string to uncertain's enum.
func parseUncertainVariant(s string) (uncertain.Variant, error) {
	switch s {
	case "", "2round":
		return uncertain.TwoRound, nil
	case "1round":
		return uncertain.OneRoundShipDists, nil
	}
	return 0, fmt.Errorf("serve: unknown uncertain variant %q (want 2round or 1round)", s)
}

// parseVariant maps the API variant string to core's enum.
func parseVariant(s string) (core.Variant, error) {
	switch s {
	case "", "2round":
		return core.TwoRound, nil
	case "1round":
		return core.OneRound, nil
	case "noship":
		return core.TwoRoundNoOutliers, nil
	}
	return 0, fmt.Errorf("serve: unknown variant %q (want 2round, 1round or noship)", s)
}

// EngineOptions returns the job's engine knobs, normalized (Reference
// implies sequential and uncached).
func (s JobSpec) EngineOptions() engine.Options {
	return s.Engine.Options.Normalize()
}

// CoreConfig translates a point-objective JobSpec into the distributed run
// configuration: the point half of Job.
func (s JobSpec) CoreConfig() (core.Config, error) {
	obj, err := parseObjective(s.Objective)
	if err != nil {
		return core.Config{}, err
	}
	vr, err := parseVariant(s.Variant)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		K: s.K, T: s.T, Objective: obj, Variant: vr, Eps: s.Eps,
		LloydPolish: s.LloydPolish,
		LocalOpts:   kmedian.Options{Seed: s.Seed, Options: s.EngineOptions()},
		Topology:    s.Topology,
	}, nil
}

// Job translates the spec into the protocol job it asks for — the one
// mapping from the API vocabulary (objective, variant and engine strings)
// to a run configuration, shared by the server, every client backend and
// dpc-cluster, so they agree bit for bit.
func (s JobSpec) Job() (jobwire.Job, error) {
	kind, err := ObjectiveKind(s.Objective)
	if err != nil {
		return jobwire.Job{}, err
	}
	j := jobwire.Job{Kind: kind}
	if kind == jobwire.KindPoint {
		j.Core, err = s.CoreConfig()
		return j, err
	}
	vr, err := parseUncertainVariant(s.Variant)
	if err != nil {
		return jobwire.Job{}, err
	}
	j.Obj, err = parseUncertainObjective(s.Objective)
	j.Unc = uncertain.Config{K: s.K, T: s.T, Variant: vr, Eps: s.Eps,
		LocalOpts: kmedian.Options{Seed: s.Seed, Options: s.EngineOptions()}, Topology: s.Topology}
	return j, err
}

// Validate checks the spec's enums and shape without touching a registry —
// the synchronous half of Submit, shared with the client package.
func (s JobSpec) Validate() error {
	if _, err := s.Job(); err != nil {
		return err
	}
	if s.K <= 0 {
		return fmt.Errorf("serve: job k = %d, must be positive", s.K)
	}
	if s.T < 0 {
		return fmt.Errorf("serve: job t = %d, must be non-negative", s.T)
	}
	// As core and uncertain validate Eps (0 stands for their default 1).
	if s.Eps < 0 || math.IsInf((1+s.Eps)*float64(s.T), 0) {
		return fmt.Errorf("serve: job eps = %v: want Eps >= 0 and a finite (1+Eps)t (t = %d)", s.Eps, s.T)
	}
	if s.Sites < 0 || s.Sites > MaxJobSites {
		return fmt.Errorf("serve: job sites = %d, must be in [0, %d]", s.Sites, MaxJobSites)
	}
	if _, err := priorityRank(s.Priority); err != nil {
		return err
	}
	if s.QueueTimeoutMS < 0 {
		return fmt.Errorf("serve: job queue_timeout_ms = %d, must be non-negative", s.QueueTimeoutMS)
	}
	if err := s.Topology.Validate(); err != nil {
		return err
	}
	if len(s.Client) > 128 {
		return fmt.Errorf("serve: job client name longer than 128 bytes")
	}
	return nil
}

// run executes spec against the registry and returns the result. It is
// called on a pool worker; everything it touches is either job-local or
// concurrency-safe (shared caches, dataset snapshots). Cancelling ctx
// aborts the solve between site rounds with ctx.Err().
func (r *Registry) run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	d, err := r.Get(spec.Dataset)
	if err != nil {
		return nil, err
	}
	job, err := spec.Job()
	if err != nil {
		return nil, err
	}
	if (job.Kind != jobwire.KindPoint) != (d.kind == KindUncertain) {
		return nil, fmt.Errorf("serve: objective %q does not apply to %s dataset %q",
			spec.Objective, d.kind, d.name)
	}
	t0 := time.Now()
	res, err := d.data.run(ctx, r, d, spec, job)
	if err != nil {
		return nil, err
	}
	res.CacheHits, res.CacheMisses = d.stats.Snapshot()
	res.DurationMS = float64(time.Since(t0).Microseconds()) / 1000
	return res, nil
}

// jobResult maps a protocol result to the job API's payload. The cost is
// the true objective over data when the server holds the instance, and
// otherwise (remote datasets: the data never reaches the server) the
// coordinator's cost on its induced instance.
func jobResult(job jobwire.Job, data jobwire.Data, res protocol.Result, wire transport.Kind) *JobResult {
	cost, kind := job.Evaluate(data, res.Centers, res.OutlierBudget)
	if kind == "" {
		cost, kind = res.CoordinatorCost, "coordinator"
	}
	return &JobResult{
		Centers:       pointsToRows(res.Centers),
		OutlierBudget: res.OutlierBudget,
		Cost:          cost,
		CostKind:      kind,
		Rounds:        res.Report.Rounds,
		UpBytes:       res.Report.UpBytes,
		DownBytes:     res.Report.DownBytes,
		SiteBudgets:   res.SiteBudgets,
		Transport:     string(wire),
		Tau:           res.Tau,
	}
}

// pointsToRows converts points to JSON-friendly rows.
func pointsToRows(pts []metric.Point) [][]float64 {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = append([]float64(nil), p...)
	}
	return rows
}
