// Package dpc is a Go implementation of "Distributed Partial Clustering"
// (Guha, Li, Zhang; SPAA 2017): communication-efficient algorithms in the
// coordinator model for clustering with outliers — (k,t)-median, (k,t)-means
// and (k,t)-center, where k centers are chosen and up to t points may be
// ignored — plus their extensions to uncertain (distribution-valued) data
// and the subquadratic centralized solvers obtained by self-simulation.
//
// # The Client API
//
// One Request describes any clustering question the paper answers — point
// objectives (median, means, center), the Section 5 uncertain objectives
// (u-median, u-means, u-centerpp, u-centerg) and, with Request.Central, the
// Section 3.1 centralized solver — and a Client answers it. Where it runs is
// a deployment choice, not an API choice:
//
//	req := dpc.Request{Objective: "median", K: 5, T: 50, Seed: 1, Points: pts}
//
//	local, _ := dpc.NewLocalClient().Do(ctx, req)            // in-process sites
//	remote, _ := dpc.NewRemoteClient(url, dpc.RemoteOptions{}).Do(ctx, req) // dpc-server
//	cluster, _ := clu.Do(ctx, req)                           // live dpc-site daemons
//
// All backends return the same Response (centers, cost, outlier budget,
// measured communication) and — same seed, same shard count —
// byte-identical centers. Every Do takes a context.Context: cancelling it
// aborts the solve at its next protocol round, on every backend, with
// errors.Is(err, context.Canceled). See the dpc/client package for the
// backend constructors' details and ExampleNewRemoteClient for one request
// answered by all three.
//
// The paper's model underneath is exact: every message is serialized,
// byte-counted and decoded on the other side; Response carries the
// measured communication footprint (the quantities bounded in Tables 1
// and 2 of the paper). Byte accounting counts payload bytes only — frame
// headers are transport overhead — so every backend reports identical
// communication.
//
// # Engine
//
// Local solves run on a multi-core engine with memoized distance oracles,
// configured by Request.Engine (EngineSpec; the -engine flag on the command
// line). Algo picks the k-median algorithm (EngineAuto, EngineLocalSearch or
// EngineJV). Workers bounds the per-solve goroutines (0 = one per CPU) with
// a hard invariant: results are bit-identical for Workers=1 and Workers=N
// on every objective, variant and transport. Reference runs the seed
// sequential implementation that the parity tests hold the engine to.
// Memoization is not a knob: metric.Memoizes and metric.CacheCosts decide it
// from each instance, and the caches are exact, so they never change results.
//
// # Package map
//
//   - Request / Response / Client    — the unified context-aware API
//   - NewLocalClient / NewRemoteClient / ListenCluster — its backends
//   - Evaluate, EvalUncertainMedian  — true global costs of an answer
//   - NewServer / ServeConfig        — the embeddable job server
//   - Mixture, UncertainMixture, ... — planted workload generators
package dpc

import (
	"dpc/client"
	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/metric"
	"dpc/internal/serve"
	"dpc/internal/uncertain"
)

// --- Unified client API (package dpc/client re-exported) ---

// Request is one clustering question, independent of where it is answered:
// objective (point or uncertain), K, T, data source and engine knobs.
type Request = client.Request

// Response is the unified outcome of a Request on any backend.
type Response = client.Response

// Client executes Requests; backends: local (in-process), cluster (TCP
// site daemons), remote (dpc-server HTTP API).
type Client = client.Client

// RemoteOptions tunes the remote backend (retries, backoff, polling).
type RemoteOptions = client.RemoteOptions

// ClusterListener is a bound-but-not-yet-connected cluster backend.
type ClusterListener = client.ClusterListener

// NewLocalClient returns the in-process backend: the request's data is
// sharded over simulated sites and the full protocol runs loopback (or
// over localhost TCP with Request.Transport = "tcp").
func NewLocalClient() Client { return client.NewLocal() }

// NewRemoteClient returns the dpc-server backend: jobs submit over the
// /v1 HTTP API with retry/backoff on 503 backpressure and poll to
// completion.
func NewRemoteClient(baseURL string, opt RemoteOptions) Client {
	return client.NewRemote(baseURL, opt)
}

// ListenCluster binds addr for `sites` dpc-site daemons; Accept
// on the returned listener yields the cluster backend once all have
// joined.
func ListenCluster(addr string, sites int) (*ClusterListener, error) {
	return client.ListenCluster(addr, sites)
}

// Point is a point in d-dimensional Euclidean space.
type Point = metric.Point

// Ground is the finite metric ground set P for uncertain data.
type Ground = uncertain.Ground

// Node is an uncertain input node: a discrete distribution over P.
type Node = uncertain.Node

// Engine selects the k-median optimization algorithm: the type of
// EngineOptions.Algo, written "auto", "localsearch" or "jv" on every wire.
type Engine = engine.Algo

// Engines.
const (
	// EngineAuto picks JV for small instances, local search otherwise.
	EngineAuto = engine.Auto
	// EngineLocalSearch always uses swap local search.
	EngineLocalSearch = engine.LocalSearch
	// EngineJV always uses the Jain-Vazirani primal-dual engine.
	EngineJV = engine.JV
)

// EngineOptions is the consolidated engine-knob surface: algorithm choice
// (Algo), goroutine bound (Workers) and the sequential reference switch
// (Reference).
type EngineOptions = engine.Options

// EngineSpec is EngineOptions plus its wire forms — the type of
// Request.Engine: a flag.Value taking comma-separated tokens
// ("jv,workers=4,reference") and a JSON codec that writes the object form
// ({"algo":"jv","workers":4}) and also reads the legacy engine string ("jv").
type EngineSpec = engine.Spec

// --- Evaluation ---

// Objective selects the point clustering objective Evaluate scores.
type Objective = core.Objective

// Clustering objectives.
const (
	// Median is the (k,t)-median objective: sum of distances, t outliers free.
	Median = core.Median
	// Means is the (k,t)-means objective: sum of squared distances.
	Means = core.Means
	// Center is the (k,t)-center objective: maximum distance.
	Center = core.Center
)

// Evaluate computes the true global partial cost of centers on a dataset
// by the repository's one definition of a partial objective,
// internal/kmedian's Eval: every point connects to its nearest center, the
// floor(budget) largest connection costs are free (none for a budget below
// 1, all for one of at least len(pts)), and the rest are summed (Median,
// Means) or maxed (Center).
func Evaluate(pts []Point, centers []Point, budget float64, obj Objective) float64 {
	return core.Evaluate(pts, centers, budget, obj)
}

// EvalUncertainMedian computes the true uncertain (k,t)-median objective.
func EvalUncertainMedian(g *Ground, nodes []Node, centers []Point, t float64) float64 {
	return uncertain.EvalMedian(g, nodes, centers, t)
}

// --- Serving (cmd/dpc-server's job subsystem) ---
//
// The serving layer turns one-shot runs into a long-lived service: named
// datasets stay registered, their memoized distance oracles stay warm
// across jobs, and concurrent (k, t, objective) queries schedule over a
// bounded pool. Embed it with NewServer + Server.Handler, or run the
// dpc-server binary; NewRemoteClient talks to either.

// ServeConfig tunes the job server (concurrency, queue depth, cache
// budget, job retention).
type ServeConfig = serve.Config

// Server is the embeddable long-running clustering service.
type Server = serve.Server

// JobSpec is one clustering job: a (k, t, objective) query against a
// registered dataset, with per-job engine knobs — the wire form of a
// Request.
type JobSpec = serve.JobSpec

// JobResult is a finished job's centers, cost and measured footprint.
type JobResult = serve.JobResult

// NewServer creates a job server; mount its Handler on any http.Server.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// --- Workload generators ---

// MixtureSpec describes a planted Gaussian-mixture-with-outliers workload.
type MixtureSpec = gen.MixtureSpec

// Instance is a planted deterministic instance.
type Instance = gen.Instance

// Mixture samples a planted instance.
func Mixture(spec MixtureSpec) Instance { return gen.Mixture(spec) }

// PartitionMode selects how points spread across sites.
type PartitionMode = gen.PartitionMode

// Partition modes.
const (
	// PartitionUniform spreads points evenly at random.
	PartitionUniform = gen.Uniform
	// PartitionSkewed gives site i a share proportional to i+1.
	PartitionSkewed = gen.Skewed
	// PartitionByCluster routes each planted cluster to one site.
	PartitionByCluster = gen.ByCluster
	// PartitionOutlierHeavy puts all planted outliers on site 0.
	PartitionOutlierHeavy = gen.OutlierHeavy
)

// Partition splits an instance across s sites — the shards a fleet of
// site daemons (client.ServeSite) holds.
func Partition(in Instance, s int, mode PartitionMode, seed int64) [][]int {
	return gen.Partition(in, s, mode, seed)
}

// SitePoints materializes per-site point slices from a partition.
func SitePoints(in Instance, parts [][]int) [][]Point {
	return gen.SitePoints(in, parts)
}

// UncertainSpec describes a planted uncertain workload.
type UncertainSpec = gen.UncertainSpec

// UncertainInstance is a planted uncertain instance.
type UncertainInstance = gen.UncertainInstance

// UncertainMixture samples a planted uncertain instance.
func UncertainMixture(spec UncertainSpec) UncertainInstance {
	return gen.UncertainMixture(spec)
}

// PartitionNodes splits an uncertain instance across s sites.
func PartitionNodes(in UncertainInstance, s int, mode PartitionMode, seed int64) [][]int {
	return gen.PartitionNodes(in, s, mode, seed)
}

// SiteNodes materializes per-site node slices from a partition.
func SiteNodes(in UncertainInstance, parts [][]int) [][]Node {
	return gen.SiteNodes(in, parts)
}
