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
// objectives (median, means, center) and the Section 5 uncertain
// objectives (u-median, u-means, u-centerpp, u-centerg) — and a Client
// answers it. Where it runs is a deployment choice, not an API choice:
//
//	req := dpc.Request{Objective: "median", K: 5, T: 50, Seed: 1, Points: pts}
//
//	local, _ := dpc.NewLocalClient().Do(ctx, req)            // in-process sites
//	remote, _ := dpc.NewRemoteClient(url, dpc.RemoteOptions{}).Do(ctx, req) // dpc-server
//	cluster, _ := clu.Do(ctx, req)                           // live dpc-site daemons
//
// All three backends return the same Response (centers, cost, outlier
// budget, measured communication) and — same seed, same shard count —
// byte-identical centers. Every Do takes a context.Context: cancelling it
// aborts the solve at its next protocol round, on every backend, with
// errors.Is(err, context.Canceled). See the dpc/client package for the
// backend constructors' details; examples/client runs one request against
// all three.
//
// The paper's model underneath is exact: every message is serialized,
// byte-counted and decoded on the other side; Response carries the
// measured communication footprint (the quantities bounded in Tables 1
// and 2 of the paper).
//
// # Transports and daemons
//
// Distributed runs move bytes over a pluggable transport: the default
// loopback backend keeps the s sites in-process (the exact simulated star
// network), Request.Transport = "tcp" runs the identical protocol over
// real localhost sockets, and a Cluster client (the library behind
// cmd/dpc-cluster -listen) over cmd/dpc-site daemons runs it across
// genuinely separate processes: the coordinator ships each run's
// configuration to the fleet in a job frame, so one connected fleet
// serves any number of requests of any objective. Byte accounting counts
// payload bytes only — frame headers are transport overhead — so every
// backend reports identical communication.
//
// # Engine
//
// Local solves run on a multi-core engine with memoized distance oracles,
// configured in one place and spelled once per configuration: EngineOptions
// — Request.Engine and the -engine flag on the client surface, and the
// LocalOpts.Options of every run configuration (Config, UncertainConfig,
// CenterGConfig, CentralConfig). Algo picks the k-median algorithm
// (EngineAuto, EngineLocalSearch or EngineJV). Workers bounds the per-solve
// goroutines (0 = one per CPU) with a hard invariant: results are
// bit-identical for Workers=1 and Workers=N on every objective, variant and
// transport. NoCache disables the distance caches (a measurement knob — the
// caches are exact and never change results), and Reference runs the seed
// sequential implementation that the parity tests
// (TestEngineMatchesReferenceEndToEnd, internal/bench's
// TestAllExperimentsQuick) hold the engine to.
//
// # Legacy one-shot surface
//
// The pre-Client entrypoints — Run, RunUncertain, RunCenterG, Centralized
// and the NewServer job subsystem — remain fully supported thin wrappers
// over the same internals; existing code and benchmarks reproduce their
// results bit for bit. New code should prefer the Client API: it is the
// only surface with context cancellation and backend portability.
//
// # Package map
//
//   - Request / Response / Client    — the unified context-aware API
//   - NewLocalClient / NewRemoteClient / ListenCluster — its backends
//   - Run / Config / Result          — Algorithms 1 and 2 + variants (legacy)
//   - TransportLoopback/TransportTCP — wire backends for distributed runs
//   - RunUncertain, RunCenterG       — Section 5 (compressed graph, Alg. 3/4)
//   - Centralized                    — Section 3.1 (subquadratic simulation:
//     Algorithm 1 over chunk sites, recursively; legacy)
//   - NewServer / ServeConfig        — the embeddable job server
//   - Mixture, UncertainMixture, ... — planted workload generators
package dpc

import (
	"context"

	"dpc/client"
	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/serve"
	"dpc/internal/stream"
	"dpc/internal/transport"
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

// BalancedOptions tunes the balanced backend (per-replica RemoteOptions
// plus the dataset replication factor).
type BalancedOptions = client.BalancedOptions

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

// NewBalancedClient returns the multi-replica dpc-server backend: each
// dataset hashes to a primary replica and replicates to the next
// Replication-1 in ring order; job submissions prefer the primary and
// fail over across replicas on connection errors and 503s, resubmitting
// jobs lost to a dying replica. Determinism makes the fleet a unit: the
// same request returns byte-identical centers from every replica.
func NewBalancedClient(urls []string, opt BalancedOptions) (*client.Balanced, error) {
	return client.NewBalanced(urls, opt)
}

// ListenCluster binds addr for `sites` dpc-site daemons; Accept
// on the returned listener yields the cluster backend once all have
// joined.
func ListenCluster(addr string, sites int) (*ClusterListener, error) {
	return client.ListenCluster(addr, sites)
}

// Point is a point in d-dimensional Euclidean space.
type Point = metric.Point

// Objective selects the clustering objective of a distributed run.
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

// Variant selects the communication protocol.
type Variant = core.Variant

// Protocol variants.
const (
	// TwoRound is Algorithm 1/2: Otilde((sk+t)B) communication, 2 rounds.
	TwoRound = core.TwoRound
	// TwoRoundNoOutliers is the Theorem 3.8 variant: outlier counts only,
	// Otilde(s/delta + sk*B) communication.
	TwoRoundNoOutliers = core.TwoRoundNoOutliers
	// OneRound is the Otilde((sk+st)B) single-round baseline.
	OneRound = core.OneRound
)

// TransportKind selects the wire backend of a distributed run.
type TransportKind = transport.Kind

// Wire backends.
const (
	// TransportLoopback runs sites in-process (the default; exact
	// simulation of the paper's star network).
	TransportLoopback = transport.KindLoopback
	// TransportTCP runs the identical protocol over real localhost TCP
	// sockets with a length-prefixed framed wire format.
	TransportTCP = transport.KindTCP
)

// Config parameterizes a distributed run; zero values select the paper's
// defaults (rho=2, eps=1, geometric grid base 2, loopback transport).
type Config = core.Config

// Result is the outcome of a distributed run of any protocol, including
// the measured communication Report; UncertainResult and CenterGResult are
// the same type under their historical names (Tau and TauGrid are set by
// RunCenterG only).
type Result = core.Result

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

// EngineOptions is the consolidated engine-knob surface shared by every
// entry point: algorithm choice (Algo), goroutine bound (Workers), the
// memoized-oracle toggle (NoCache) and the sequential reference switch
// (Reference). SolverOptions embeds it (so every run configuration's
// LocalOpts carries it), the kcenter options are it, and the job API's
// "engine" object spells it, so one vocabulary configures the engine
// everywhere.
type EngineOptions = engine.Options

// EngineSpec is EngineOptions plus its wire forms: a flag.Value taking
// comma-separated tokens ("jv,workers=4,nocache") and a JSON codec that
// writes the object form ({"algo":"jv","workers":4}) and also reads the
// legacy engine string ("jv").
type EngineSpec = engine.Spec

// SolverOptions tunes the optimization engines (seed, iteration caps,
// warm starts) around an embedded EngineOptions, whose Algo picks the
// engine. It is every run configuration's LocalOpts.
type SolverOptions = kmedian.Options

// Run executes distributed partial clustering over the per-site datasets.
//
// Legacy one-shot surface: prefer Client (NewLocalClient) for new code —
// it adds context cancellation and backend portability over the same
// internals, bit for bit.
func Run(sites [][]Point, cfg Config) (Result, error) {
	return core.Run(sites, cfg)
}

// Evaluate computes the true global partial cost of centers on a dataset:
// every point connects to its nearest center, the `budget` largest
// connection costs are free.
func Evaluate(pts []Point, centers []Point, budget float64, obj Objective) float64 {
	return core.Evaluate(pts, centers, budget, obj)
}

// FlattenSites concatenates per-site point slices.
func FlattenSites(sites [][]Point) []Point {
	return core.FlattenSites(sites)
}

// --- Uncertain data (Section 5) ---

// Ground is the finite metric ground set P for uncertain data.
type Ground = uncertain.Ground

// Node is an uncertain input node: a discrete distribution over P.
type Node = uncertain.Node

// UncertainObjective selects the uncertain objective.
type UncertainObjective = uncertain.Objective

// Uncertain objectives.
const (
	// UncertainMedian is Eq. (1): sum of expected assignment distances.
	UncertainMedian = uncertain.Median
	// UncertainMeans is the squared variant.
	UncertainMeans = uncertain.Means
	// UncertainCenterPP is Eq. (2): max of expected assignment distances.
	UncertainCenterPP = uncertain.CenterPP
)

// UncertainVariant selects the uncertain protocol.
type UncertainVariant = uncertain.Variant

// Uncertain protocol variants.
const (
	// UncertainTwoRound is Algorithm 3: only collapsed (y_j, ell_j) pairs
	// cross the wire.
	UncertainTwoRound = uncertain.TwoRound
	// UncertainOneRoundShipDists is the naive baseline that ships full
	// distributions (I bits per outlier node).
	UncertainOneRoundShipDists = uncertain.OneRoundShipDists
)

// UncertainConfig parameterizes a distributed uncertain run.
type UncertainConfig = uncertain.Config

// UncertainResult is the outcome of a distributed uncertain run.
type UncertainResult = uncertain.Result

// RunUncertain executes Algorithm 3 (compressed-graph clustering) for the
// uncertain median/means/center-pp objectives.
//
// Legacy one-shot surface: prefer Client with Objective "u-median",
// "u-means" or "u-centerpp".
func RunUncertain(g *Ground, sites [][]Node, cfg UncertainConfig, obj UncertainObjective) (UncertainResult, error) {
	return uncertain.Run(g, sites, cfg, obj)
}

// CenterGConfig parameterizes Algorithm 4.
type CenterGConfig = uncertain.CenterGConfig

// CenterGResult is the outcome of Algorithm 4.
type CenterGResult = uncertain.CenterGResult

// RunCenterG executes Algorithm 4 for the uncertain (k,t)-center-g
// objective (Eq. 3): parametric search over truncated distances.
//
// Legacy one-shot surface: prefer Client with Objective "u-centerg".
func RunCenterG(g *Ground, sites [][]Node, cfg CenterGConfig) (CenterGResult, error) {
	return uncertain.RunCenterG(g, sites, cfg)
}

// EvalUncertainMedian computes the true uncertain (k,t)-median objective.
func EvalUncertainMedian(g *Ground, nodes []Node, centers []Point, t float64) float64 {
	return uncertain.EvalMedian(g, nodes, centers, t)
}

// EvalUncertainMeans computes the true uncertain (k,t)-means objective.
func EvalUncertainMeans(g *Ground, nodes []Node, centers []Point, t float64) float64 {
	return uncertain.EvalMeans(g, nodes, centers, t)
}

// EvalUncertainCenterPP computes the uncertain (k,t)-center-pp objective.
func EvalUncertainCenterPP(g *Ground, nodes []Node, centers []Point, t float64) float64 {
	return uncertain.EvalCenterPP(g, nodes, centers, t)
}

// EvalUncertainCenterG estimates the (k,t)-center-g objective by seeded
// Monte Carlo over joint realizations.
func EvalUncertainCenterG(g *Ground, nodes []Node, centers []Point, t float64, samples int, seed int64) float64 {
	return uncertain.EvalCenterG(g, nodes, centers, t, samples, seed)
}

// --- Arbitrary metric oracles ---
//
// The paper's model is "clustering over a graph with n nodes and an oracle
// distance function" — anything implementing CostOracle can be clustered
// with the partial solvers below (they are the engines behind Run).

// CostOracle is the client/facility connection-cost interface every solver
// consumes.
type CostOracle = metric.Costs

// Edge is a weighted undirected edge of a graph metric.
type Edge = metric.Edge

// GraphMetric computes the shortest-path closure of a connected weighted
// graph as a cost oracle (and finite metric).
func GraphMetric(n int, edges []Edge) (CostOracle, error) {
	return metric.GraphMetric(n, edges)
}

// AngularSpace wraps feature vectors in the angular (kernelized cosine)
// metric — the "documents and images represented in a feature space"
// setting of the paper's introduction.
type AngularSpace = metric.AngularSpace

// OracleSolution is a (k,t)-median/means solution over a cost oracle.
type OracleSolution = kmedian.Solution

// SolvePartialMedian solves the (k,t)-median problem on an arbitrary cost
// oracle with optional client weights (nil = unit), on the engine opts.Algo
// selects. For (k,t)-means, wrap the oracle so Cost returns squared
// distances.
func SolvePartialMedian(c CostOracle, w []float64, k int, t float64, opts SolverOptions) OracleSolution {
	return kmedian.Solve(c, w, k, t, opts)
}

// CenterSolution is a (k,t)-center solution over a cost oracle.
type CenterSolution = kcenter.Solution

// SolvePartialCenter solves the weighted (k,t)-center problem on an
// arbitrary cost oracle (greedy 3-approximation of Charikar et al.).
func SolvePartialCenter(c CostOracle, w []float64, k int, t float64) CenterSolution {
	return kcenter.Partial(c, w, k, t)
}

// --- Streaming sketch (reference [14], the basis of Theorem 2.1) ---

// StreamConfig tunes the one-pass partial clustering sketch.
type StreamConfig = stream.Config

// StreamSketch summarizes an unbounded point stream in O(chunk+k+t) memory
// while preserving (k,t)-median/means cost up to the Theorem 2.1 constants.
type StreamSketch = stream.Sketch

// StreamResult is the solution extracted from a sketch.
type StreamResult = stream.Result

// NewStream creates a one-pass partial clustering sketch.
func NewStream(cfg StreamConfig) (*StreamSketch, error) {
	return stream.New(cfg)
}

// --- Serving (cmd/dpc-server's job subsystem) ---
//
// The serving layer turns one-shot runs into a long-lived service: named
// datasets stay registered, their memoized distance oracles stay warm
// across jobs, and concurrent (k, t, objective) queries schedule over a
// bounded pool. Embed it with NewServer + Server.Handler, or run the
// dpc-server binary.

// ServeConfig tunes the job server (concurrency, queue depth, cache
// budget, job retention).
type ServeConfig = serve.Config

// Server is the embeddable long-running clustering service.
type Server = serve.Server

// JobSpec is one clustering job: a (k, t, objective) query against a
// registered dataset, with per-job engine knobs (Engine, Seed)
// mirroring Config's LocalOpts — zero values reproduce a one-shot Run bit
// for bit.
type JobSpec = serve.JobSpec

// JobResult is a finished job's centers, cost and measured footprint.
type JobResult = serve.JobResult

// NewServer creates a job server; mount its Handler on any http.Server.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// --- Centralized subquadratic solvers (Section 3.1) ---

// CentralConfig parameterizes the centralized solver (Levels = simulation
// depth; 0 is the direct quadratic Theorem 3.1 engine).
type CentralConfig = central.Config

// CentralSolution is a centralized result with wall-clock timing.
type CentralSolution = central.Solution

// Centralized solves (k,t)-median/means centrally, optionally simulating
// the distributed algorithm to break the quadratic barrier (Theorem 3.10):
// each simulated level runs Algorithm 1 over in-process chunk sites on the
// same round skeleton as Run.
//
// Legacy one-shot surface: prefer Client with Request.Central set, which
// adds context cancellation.
func Centralized(pts []Point, cfg CentralConfig) (CentralSolution, error) {
	return central.PartialMedian(context.Background(), pts, cfg)
}

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

// Partition splits an instance across s sites.
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
