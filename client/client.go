// Package client is the unified, context-aware entry point to distributed
// partial clustering: one Request describing what to solve — any objective
// of the paper, point or uncertain — executed by a Client, with where it
// runs reduced to a deployment choice:
//
//   - Local: in-process, sharding the request's in-memory data over
//     simulated sites (the exact star network of the paper).
//   - Cluster: a coordinator driving dpc-site daemons over TCP; the data
//     lives at the sites.
//   - Remote: a typed HTTP client for a dpc-server, with retry/backoff on
//     503 backpressure and job polling.
//
// All three return the same Response (centers, cost, outlier budget,
// measured communication), and all three honor context cancellation: a
// cancelled context aborts the solve at its next protocol round and Do
// returns an error satisfying errors.Is(err, context.Canceled). Local's
// centralized solver (Request.Central) is no exception: its simulated levels
// are protocol runs too.
//
// The same Request — same seed, same shard count — returns byte-identical
// centers on every backend; the round-trip tests in this package assert it.
package client

import (
	"context"
	"fmt"
	"math"

	"dpc/internal/comm"
	"dpc/internal/engine"
	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/serve"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

// Point is a point in d-dimensional Euclidean space.
type Point = metric.Point

// Node is an uncertain input node: a discrete distribution over the ground
// set.
type Node = uncertain.Node

// Ground is the finite metric ground set shared by uncertain nodes.
type Ground = uncertain.Ground

// Report is the measured communication/time footprint of a distributed run.
type Report = comm.Report

// Objective names accepted by Request.Objective. The u-* values are the
// Section 5 uncertain objectives.
const (
	Median            = "median"
	Means             = "means"
	Center            = "center"
	UncertainMedian   = "u-median"
	UncertainMeans    = "u-means"
	UncertainCenterPP = "u-centerpp"
	UncertainCenterG  = "u-centerg"
)

// Request is one clustering question, independent of where it is answered.
// JSON field names are the /v1 job API's names, and the CLI flags of
// cmd/dpc-cluster are generated from them (see BindFlags) — one vocabulary
// across library, wire and command line. Zero values select the defaults a
// one-shot dpc-cluster run uses, so minimal requests reproduce CLI runs
// bit for bit.
type Request struct {
	// Objective is median (default), means or center for point data, or
	// u-median, u-means, u-centerpp, u-centerg for uncertain data.
	Objective string `json:"objective,omitempty" usage:"objective: median | means | center | u-median | u-means | u-centerpp | u-centerg"`
	// Variant selects the protocol: 2round (default), 1round, or noship
	// (point median/means only). For u-centerg, 1round selects the Table 2
	// single-round variant.
	Variant string `json:"variant,omitempty" usage:"protocol variant: 2round | 1round | noship"`
	K       int    `json:"k" usage:"number of centers"`
	T       int    `json:"t" usage:"outlier budget (points that may be ignored)"`
	// Sites is the shard count when the backend shards in-memory data
	// (Local, Remote table/uncertain jobs). Default 8. Ignored by Cluster,
	// where the connected daemons are the sharding.
	Sites int     `json:"sites,omitempty" usage:"number of simulated sites (default 8)"`
	Eps   float64 `json:"eps,omitempty" usage:"coordinator bicriteria slack (default 1)"`
	Seed  int64   `json:"seed,omitempty" usage:"engine seed (site i derives seed + i*const)"`
	// Engine bundles every solver-engine knob: algorithm choice plus the
	// cache, worker and reference toggles. As a flag it takes
	// comma-separated tokens ("jv,workers=4"); as JSON it is the object
	// {"algo": ..., "workers": ...} (a bare algorithm string is still read).
	Engine      engine.Spec `json:"engine,omitempty" usage:"engine spec: algo and knobs, e.g. jv,workers=4 (tokens: auto|localsearch|jv, nocache, workers=N, reference)"`
	LloydPolish bool        `json:"lloyd_polish,omitempty" usage:"Lloyd-polish the final centers (means only)"`
	// Transport selects the Local backend's wire: loopback (default) or
	// tcp (real localhost sockets). Other backends ignore it.
	Transport string `json:"transport,omitempty" usage:"local wire backend: loopback | tcp"`
	// Topology selects the coordinator fan-in: star (default) or an
	// aggregation tree with a branching factor ("tree,branch=8"). Centers
	// are byte-identical either way; the tree bounds the coordinator's
	// physical inbox by the branching factor instead of the site count.
	Topology tree.Spec `json:"topology,omitempty" usage:"coordinator fan-in: star | tree | tree,branch=N"`
	// Central switches the Local backend to the Section 3.1 centralized
	// solver (median/means only); Levels is its simulation depth, each
	// level an in-process Algorithm 1 run over chunks of Points.
	Central bool `json:"central,omitempty" usage:"solve centrally (Section 3.1) instead of the distributed protocol (median/means)"`
	Levels  int  `json:"levels,omitempty" usage:"centralized simulation depth (with -central)"`

	// Dataset names a server-side dataset for the Remote backend. When
	// empty, Remote registers the request's in-memory data as an ephemeral
	// dataset for the duration of the call.
	Dataset string `json:"dataset,omitempty" usage:"named dpc-server dataset (remote backend)"`

	// Admission-control knobs for the server backends (Remote, Balanced);
	// Local and Cluster ignore them. Client names the caller for the
	// server's per-client token quotas; Priority is high | normal | low
	// (default normal); QueueTimeoutMS bounds how long the job may wait in
	// the queue before the server fails it with queue_deadline_exceeded
	// (0 = the server's default).
	Client         string `json:"client,omitempty" usage:"client name for server-side quotas (remote backend)"`
	Priority       string `json:"priority,omitempty" usage:"scheduling class: high | normal | low (remote backend)"`
	QueueTimeoutMS int    `json:"queue_timeout_ms,omitempty" usage:"max queue wait in ms before the server fails the job (remote backend)"`

	// In-memory data sources (Local shards them; Remote uploads them when
	// Dataset is empty; Cluster uses site-held data instead, consulting
	// only Ground/Nodes for coordinator-side knowledge and evaluation).
	Points []Point `json:"-" usage:"-"`
	Ground *Ground `json:"-" usage:"-"`
	Nodes  []Node  `json:"-" usage:"-"`
}

// spec translates the request into the job API's wire spec — the single
// mapping (serve's) every backend shares, so Local, Cluster and Remote
// cannot drift apart.
func (r Request) spec() serve.JobSpec {
	return serve.JobSpec{
		Dataset:        r.Dataset,
		K:              r.K,
		T:              r.T,
		Objective:      r.Objective,
		Variant:        r.Variant,
		Sites:          r.Sites,
		Eps:            r.Eps,
		Seed:           r.Seed,
		Engine:         r.Engine,
		LloydPolish:    r.LloydPolish,
		Client:         r.Client,
		Priority:       r.Priority,
		QueueTimeoutMS: r.QueueTimeoutMS,
		Topology:       r.Topology,
	}
}

// kind returns the protocol family of the request's objective.
func (r Request) kind() (jobwire.Kind, error) {
	return serve.ObjectiveKind(r.Objective)
}

// Validate checks the request's enums and shape and the in-memory data it
// carries: points (Points and the Ground's) non-empty, of one dimension and
// finite — what dataio demands of a CSV — and every node a distribution over
// Ground. Every backend runs it inside Do, before any site sees the data.
func (r Request) Validate() error {
	if err := r.spec().Validate(); err != nil {
		return err
	}
	if err := validatePoints("point", r.Points); err != nil {
		return err
	}
	if r.Ground == nil {
		if len(r.Nodes) > 0 {
			return fmt.Errorf("client: %d nodes without a Ground", len(r.Nodes))
		}
		return nil
	}
	if err := validatePoints("ground point", r.Ground.Pts); err != nil {
		return err
	}
	for j, nd := range r.Nodes {
		if err := nd.Validate(r.Ground); err != nil {
			return fmt.Errorf("client: node %d: %w", j, err)
		}
	}
	return nil
}

// validatePoints rejects an empty point, a dimension differing from the
// first point's, and a non-finite coordinate.
func validatePoints(what string, pts []Point) error {
	for i, p := range pts {
		if len(p) == 0 {
			return fmt.Errorf("client: %s %d is empty", what, i)
		}
		if len(p) != len(pts[0]) {
			return fmt.Errorf("client: %s %d has dimension %d, want %d", what, i, len(p), len(pts[0]))
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("client: %s %d has non-finite coordinate %g", what, i, v)
			}
		}
	}
	return nil
}

// Response is the unified outcome of a Request on any backend.
type Response struct {
	// Centers are the chosen centers (ground-space points for uncertain
	// objectives).
	Centers []Point `json:"centers"`
	// Cost is the solution's objective value; CostKind says against what:
	// "global" (the full dataset), "estimate" (u-centerg's seeded Monte
	// Carlo), "coordinator" (the coordinator's induced instance — a
	// Cluster run without coordinator-side data), or "" (not evaluated).
	Cost     float64 `json:"cost"`
	CostKind string  `json:"cost_kind,omitempty"`
	// OutlierBudget is the number of (weighted) points the solution is
	// entitled to ignore.
	OutlierBudget float64 `json:"outlier_budget"`
	// SiteBudgets are the allocated per-site budgets t_i (nil for 1-round
	// variants and non-distributed solves).
	SiteBudgets []int `json:"site_budgets,omitempty"`
	// Measured communication of the distributed run (zero for central and
	// stream answers; Remote reports the server-measured values).
	Rounds    int   `json:"rounds,omitempty"`
	UpBytes   int64 `json:"up_bytes,omitempty"`
	DownBytes int64 `json:"down_bytes,omitempty"`
	// Tree attributes the run's physical bytes to the link tiers of an
	// aggregation tree (Local and Cluster under a tree topology; nil for
	// star runs and server backends).
	Tree *comm.TreeStats `json:"tree,omitempty"`
	// Tau is u-centerg's chosen truncation threshold (a lower-bound
	// witness; zero otherwise).
	Tau float64 `json:"tau,omitempty"`
	// Backend records which backend produced the response ("local",
	// "cluster", "remote", "balanced"); JobID is the server job for remote
	// runs. Replica is the base URL of the dpc-server replica that served
	// a balanced run (empty elsewhere).
	Backend string `json:"backend,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	Replica string `json:"replica,omitempty"`
}

// Client executes Requests. Implementations: Local (in-process), Cluster
// (TCP site daemons), Remote (dpc-server HTTP API).
type Client interface {
	// Do answers one request. Cancelling ctx aborts the solve at its next
	// protocol round; Do then returns an error satisfying
	// errors.Is(err, ctx.Err()).
	Do(ctx context.Context, req Request) (*Response, error)
	// Close releases backend resources (site connections, ephemeral
	// datasets' HTTP client state). The zero-cost backends no-op.
	Close() error
}

// data is the request's in-memory instance.
func (r Request) data() jobwire.Data {
	return jobwire.Data{Pts: r.Points, G: r.Ground, Nodes: r.Nodes}
}

// respond maps a protocol result to the unified response of the in-process
// and cluster backends. The cost is the true objective over d when d holds
// the instance (byte-identical on every backend that does), and otherwise
// the coordinator's own cost on its induced instance.
func respond(backend string, job jobwire.Job, d jobwire.Data, res protocol.Result) *Response {
	cost, kind := job.Evaluate(d, res.Centers, res.OutlierBudget)
	if kind == "" {
		cost, kind = res.CoordinatorCost, "coordinator"
	}
	return &Response{
		Centers:       res.Centers,
		Cost:          cost,
		CostKind:      kind,
		OutlierBudget: res.OutlierBudget,
		SiteBudgets:   res.SiteBudgets,
		Rounds:        res.Report.Rounds,
		UpBytes:       res.Report.UpBytes,
		DownBytes:     res.Report.DownBytes,
		Tree:          res.Report.Tree,
		Tau:           res.Tau,
		Backend:       backend,
	}
}
