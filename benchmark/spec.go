package main

import (
	"encoding/json"
	"fmt"
)

// This file is the single source of the benchmark's vocabulary: workload
// names and sizes, end-to-end metrics with their regression bounds, and the
// per-layer metrics of the traced run. BENCHMARK.json at the repository root
// is `manifest`'s rendering of these tables (a self-test pins the two).

// devSeed is the seed the benchmark was developed on. A performance claim
// must also hold on a second seed that was not used while the change was
// written.
const devSeed = 20170724

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 25

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and emitted on every workload.
//
// Timings and rates carry the widest bound the contract allows: the two
// vCPUs of the shared reference VM behave like two hardware threads of one
// core, so whatever runs beside the benchmark slows it by up to 1.5x, for
// seconds (the rounds' medians absorb that) or for minutes (nothing does:
// sets of ten runs an hour apart differed by 12% in job_p50_ms). A gain or
// loss smaller than the bound has to be shown the long way (ten alternating
// pairs, README "Comparing two sets of runs").
//
// The byte counts and cost_ratio are exact given the seed (bit-identical
// across runs of one seed), and `compare` holds them to that on seeds both
// sides ran. Their bounds cover the variation between seeds only: bytes
// within 1.5% over ten seeds; cost_ratio up to 11.5% on fanin-tree, whose
// one instance per seed makes it a single draw of an extreme-value
// statistic (0.4-1% on the others). peak_rss_mb moves 2-8% with GC timing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p95_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"up_bytes_per_job", "B", "lower", 0.05},
	{"down_bytes_per_job", "B", "lower", 0.05},
	{"root_inbox_bytes_per_job", "B", "lower", 0.05},
	{"cost_ratio", "ratio", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics; the prefix is the module the
// number prices. README.md carries the glossary and the interaction table
// (which end-to-end metric each one should move, on which workload).
var perLayer = []metricDef{
	{"metric.l2_ns_per_dist", "ns", "lower", 0},
	{"metric.sql2_ns_per_dist", "ns", "lower", 0},
	{"metric.cache_hits_per_job", "count", "higher", 0},
	{"metric.cache_misses_per_job", "count", "lower", 0},
	{"metric.cache_hit_ratio", "ratio", "higher", 0},
	{"metric.cache_prefill_ns_per_pair", "ns", "lower", 0},
	{"metric.index_build_ms", "ms", "lower", 0},
	{"metric.index_nearest_ns", "ns", "lower", 0},

	{"kmedian.localsearch_s", "s", "lower", 0},
	{"kmedian.localsearch_w1_s", "s", "lower", 0},
	{"kmedian.scaling_x", "ratio", "higher", 0},
	{"kmedian.jv_s", "s", "lower", 0},

	{"kcenter.gonzalez_s", "s", "lower", 0},
	{"kcenter.partial_s", "s", "lower", 0},

	{"alloc.allocate_us", "us", "lower", 0},

	{"core.site_r0_sum_s", "s", "lower", 0},
	{"core.site_r0_max_s", "s", "lower", 0},
	{"core.site_r1_sum_s", "s", "lower", 0},
	{"core.site_r1_max_s", "s", "lower", 0},
	{"core.straggler_x", "ratio", "lower", 0},
	{"core.coord_s", "s", "lower", 0},
	{"core.coord_clients", "count", "lower", 0},
	{"core.sum_site_budgets", "count", "lower", 0},

	{"comm.up_bytes_r0", "B", "lower", 0},
	{"comm.up_bytes_r1", "B", "lower", 0},
	{"comm.down_bytes_r1", "B", "lower", 0},
	{"comm.bytes_per_coord_client", "B", "lower", 0},
	{"comm.encode_ns_per_byte", "ns", "lower", 0},
	{"comm.decode_ns_per_byte", "ns", "lower", 0},

	{"transport.connect_s", "s", "lower", 0},
	{"transport.round_overhead_ms", "ms", "lower", 0},
	{"transport.tcp_rtt_us", "us", "lower", 0},
	{"transport.tcp_mb_per_s", "MB/s", "higher", 0},

	{"tree.root_inbox_bytes", "B", "lower", 0},
	{"tree.leaf_bytes", "B", "lower", 0},
	{"tree.levels", "count", "lower", 0},
	{"tree.inbox_ratio", "ratio", "lower", 0},
	{"tree.overhead_ms", "ms", "lower", 0},

	{"jobwire.encode_us", "us", "lower", 0},
	{"jobwire.decode_us", "us", "lower", 0},

	{"serve.register_ms", "ms", "lower", 0},
	{"serve.append_ms", "ms", "lower", 0},
	{"serve.submit_ms", "ms", "lower", 0},
	{"serve.get_job_ms", "ms", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"serve.queue_wait_p95_ms", "ms", "lower", 0},
	{"serve.run_ms.median", "ms", "lower", 0},
	{"serve.run_ms.center", "ms", "lower", 0},
	{"serve.run_ms.u-median", "ms", "lower", 0},
	{"serve.run_ms.median-cold", "ms", "lower", 0},
	{"serve.job_p95_by_kind_ms.median", "ms", "lower", 0},
	{"serve.job_p95_by_kind_ms.center", "ms", "lower", 0},
	{"serve.job_p95_by_kind_ms.u-median", "ms", "lower", 0},
	{"serve.job_p95_by_kind_ms.median-cold", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.rejected_503", "count", "lower", 0},
	{"serve.restart_replay_s", "s", "lower", 0},

	{"journal.append_sync_us", "us", "lower", 0},
	{"journal.append_nosync_us", "us", "lower", 0},
	{"journal.replay_mb_per_s", "MB/s", "higher", 0},
	{"journal.disk_bytes", "B", "lower", 0},

	{"client.remote_overhead_ms", "ms", "lower", 0},
	{"client.local_overhead_ms", "ms", "lower", 0},

	{"bench.traced_job_p50_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.span_coverage_pct", "%", "higher", 0},
	{"bench.site_share_pct", "%", "lower", 0},
	{"bench.calib_ms_before", "ms", "lower", 0},
	{"bench.calib_ms_after", "ms", "lower", 0},
}

// Workload kinds: which driver runs the preset.
const (
	kindBatch = "batch" // client.NewLocal().Do over in-memory points
	kindFanin = "fanin" // persistent TCP tree fleet, client.Cluster.Do
	kindServe = "serve" // in-process dpc.NewServer, client.Remote
)

// preset is one workload's sizes. The point-job fields (Objective … Branch)
// also describe the job the traced run replays through the lower-level
// entry points and the shard the layer probes run on.
type preset struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Why  string `json:"why"`

	Objective string `json:"objective"`
	N         int    `json:"n"`
	Dim       int    `json:"dim"`
	K         int    `json:"k"`
	T         int    `json:"t"`
	Sites     int    `json:"sites"`
	// Branch is the aggregation-tree branching factor: the topology of
	// the fanin workload, and the tree the traced run prices against the
	// star on the others.
	Branch int `json:"branch"`
	// Datasets is how many seeded instances the jobs of one round cycle
	// over (batch workloads; the others hold one instance per round).
	Datasets int `json:"datasets"`
	Warmup   int `json:"warmup_ops"`
	// ExactOps is the fixed op prefix of every round the exact metrics
	// (bytes, cost ratio) are taken over; a round never stops before it
	// completes, so they do not depend on how fast the machine is.
	ExactOps int `json:"exact_ops"`
	Clients  int `json:"clients"`
	// CostCeiling fails a job whose cost_ratio exceeds it.
	CostCeiling float64 `json:"cost_ceiling"`

	// Serve-only sizes (the hot dataset uses N/Dim/K/T/Sites above).
	IngestN   int `json:"ingest_n,omitempty"`
	AppendPts int `json:"append_points,omitempty"`
	UncN      int `json:"unc_nodes,omitempty"`
	UncK      int `json:"unc_k,omitempty"`
	UncT      int `json:"unc_t,omitempty"`
	PollMS    int `json:"poll_interval_ms,omitempty"`
}

// presets are the four workloads at reference size. A run measures for
// run_seconds in five rounds, each set up afresh on inputs of its own; job
// counts follow from it (≈150 / ≈23 / ≈1250 / ≈500 jobs a run on the 2-core
// reference box).
//
// Two thresholds in the program shape the sizes: metric.MaxCachePoints
// (2048) separates the two batch workloads' shards, and kmedian's Auto
// engine switches from local search to JV at 140 points, so every median
// shard stays above that (serve-mixed: 160 per site). median-shards has 250
// points a site because a 0.25 MB shard cache stays in a core's private
// cache: at 500 points a site (1 MB) the same job's times spread three times
// as wide from run to run on the shared host (job_p50_ms 7.6% against 2.2%).
var presets = []preset{
	{
		Name: "median-shards", Kind: kindBatch,
		Why:       "(k,t)-median, 8 loopback sites of 250 pts (<= MaxCachePoints): site local search on the cached oracle is >95% of a job, so solver and DistCache changes show here; kernel, wire, serve changes must not",
		Objective: "median", N: 2000, Dim: 2, K: 5, T: 20, Sites: 8, Branch: 2,
		Datasets: 8, Warmup: 1, ExactOps: 3, Clients: 1, CostCeiling: 2,
	},
	{
		Name: "means-hidim", Kind: kindBatch,
		Why:       "(k,t)-means, dim 16, 2 sites of 2100 pts (> MaxCachePoints, raw oracle): every lookup is a 16-dim SqL2 through metric.Space, so the distance kernel and point layout dominate and the cache is bypassed",
		Objective: "means", N: 4200, Dim: 16, K: 5, T: 42, Sites: 2, Branch: 2,
		Datasets: 4, Warmup: 1, ExactOps: 2, Clients: 1, CostCeiling: 2,
	},
	{
		Name: "fanin-tree", Kind: kindFanin,
		Why:       "(k,t)-center on a persistent TCP tree fleet (root, 4 aggregators, 32 leaves of 128 pts): sites are ~15% of a job; job frame, framing, tree pack/unpack, decode and the coordinator solve are the rest",
		Objective: "center", N: 4096, Dim: 2, K: 4, T: 128, Sites: 32, Branch: 8,
		Datasets: 1, Warmup: 20, ExactOps: 20, Clients: 1, CostCeiling: 3,
	},
	{
		Name: "serve-mixed", Kind: kindServe,
		Why:       "dpc server, fsynced journal, 2 client.Remote loops: 50% median, 15% center on hot, 10% u-median on unc, 15% appends, 10% cold median on ingest: HTTP, queue, shared caches, journal, reads beside writes",
		Objective: "median", N: 1280, Dim: 2, K: 3, T: 12, Sites: 8, Branch: 2,
		Datasets: 1, Warmup: 4, ExactOps: 20, Clients: 2, CostCeiling: 3,
		IngestN: 1280, AppendPts: 50, UncN: 200, UncK: 3, UncT: 6, PollMS: 2,
	},
}

func presetByName(ps []preset, name string) (preset, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p, true
		}
	}
	return preset{}, false
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, p := range presets {
		if len(p.Why) > 200 {
			return nil, fmt.Errorf("workload %s: why is %d characters (max 200)", p.Name, len(p.Why))
		}
		m.Workloads = append(m.Workloads, workload{p.Name, p.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
