// Package core implements the paper's distributed partial clustering
// algorithms in the coordinator model:
//
//   - Algorithm 1 (Section 3): 2-round (k,(1+eps)t)-median/means with
//     Otilde((sk+t)B) communication via convex-hull cost curves and the
//     rank-rho*t pivot allocation;
//   - the modified Algorithm 1 (Theorem 3.8): outlier *counts* only,
//     Otilde(s/delta + sk B) communication, 4k-center combination at the
//     exceptional site (Lemma 3.7);
//   - Algorithm 2 (Section 4): 2-round (k,t)-center from Gonzalez
//     preclustering with insertion-radius slope witnesses;
//   - 1-round baselines (Appendix A, Table 2): t_i = t at every site,
//     Otilde((sk+st)B) communication — the [14]/[19]-style strawmen the
//     paper improves on.
package core

import (
	"context"
	"fmt"
	"math"

	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Objective selects the clustering objective.
type Objective int

const (
	// Median is the (k,t)-median objective (sum of distances).
	Median Objective = iota
	// Means is the (k,t)-means objective (sum of squared distances).
	Means
	// Center is the (k,t)-center objective (max distance).
	Center
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Median:
		return "median"
	case Means:
		return "means"
	case Center:
		return "center"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Variant selects the protocol variant.
type Variant int

const (
	// TwoRound is Algorithm 1 / Algorithm 2: hull curves up, pivot down,
	// centers + t_i outlier points up. Communication Otilde((sk+t)B).
	TwoRound Variant = iota
	// TwoRoundNoOutliers is the Theorem 3.8 variant: sites ship only the
	// *number* of ignored points; the exceptional site combines two hull
	// solutions into a 4k-center preclustering (Lemma 3.7).
	// Communication Otilde(s/delta + sk*B); the solution ignores up to
	// (2+eps+delta)t points. Median/means only.
	TwoRoundNoOutliers
	// OneRound ships every site's full local solution with t_i = t —
	// the Otilde((sk+st)B) baseline of Table 2.
	OneRound
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case TwoRound:
		return "2round"
	case TwoRoundNoOutliers:
		return "2round-noship"
	case OneRound:
		return "1round"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config parameterizes a distributed run.
type Config struct {
	K int // number of centers
	T int // outlier budget

	Objective Objective
	Variant   Variant

	// Eps is the coordinator's bicriteria slack: the final solve may
	// ignore (1+Eps)t weighted points (Theorem 3.6), or open (1+Eps)k
	// centers when RelaxCenters is set. Default 1.
	Eps float64
	// RelaxCenters switches the coordinator to the second branch of
	// Theorem 3.1: the output has up to ceil((1+Eps)k) centers but ignores
	// only t points — the "(1+eps)k, t" rows of Table 2. Median/means only.
	RelaxCenters bool
	// LloydPolish refines the final means centers with unrestricted
	// Euclidean centroids (k-means-- iterations on the coordinator's
	// weighted instance) — the other side of Definition 1.1's "factor of
	// 2" remark. Means objective only.
	LloydPolish bool
	// Rho is the allocation rank multiplier (Algorithm 1 uses rho = 2;
	// Theorem 3.8 uses rho = 1+Delta). Default 2 (or 1+Delta for the
	// no-ship variant).
	Rho float64
	// Delta is the budget slack of the no-ship variant. Default 0.25.
	Delta float64
	// HullBase is the geometric grid base for local budget sampling
	// (Line 2 of Algorithm 1). Default 2.
	HullBase float64
	// LocalOpts tunes every solve, the sites' and the coordinator's;
	// per-site seeds are derived from LocalOpts.Seed + site index. Its
	// engine knobs (algorithm, workers, caches, reference) are the run's
	// only ones; withDefaults normalizes them.
	LocalOpts kmedian.Options

	// Transport selects the wire backend for Run: empty or
	// transport.KindLoopback keeps sites in-process (the exact simulated
	// star network); transport.KindTCP drives the identical protocol over
	// real localhost sockets, one in-process site server per site. For
	// sites in genuinely separate processes, see RunOverCtx, internal/jobwire
	// and the dpc-cluster -listen / dpc-site commands. Coordinator-local,
	// like Topology.
	Transport transport.Kind `json:"-"`
	// Topology selects the coordinator fan-in for Run: the zero value is
	// the paper's star (every site talks straight to the coordinator);
	// tree.Spec{Tree: true, Branch: b} routes sites through intermediate
	// aggregators so the root's physical inbox is O(branch) messages per
	// round instead of O(s). Centers are byte-identical across topologies
	// (the aggregators re-group the same summaries losslessly); the
	// per-level traffic lands in Result.Report.Tree. Like Transport, this
	// is coordinator-local and not shipped to sites.
	Topology tree.Spec `json:"-"`
	// CenterScratch, when non-nil, is the working memory of the center
	// objective's coordinator solve (kcenter.Scratch.Partial), kept by the
	// caller across its jobs; nil allocates it per solve. A persistent
	// coordinator that runs one job at a time sets it to one scratch of its
	// own (jobwire.Fleet does), so its cost matrix, sort buffers and ball
	// index are not allocated and zeroed again every job, and a job whose
	// preclusters repeat the last job's bit for bit does not build the
	// index again (nor, under the same counts, the probes' prefix-count
	// table). Results do not depend on it. Coordinator-local, like
	// Transport and Topology; a scratch must not serve two runs at once.
	CenterScratch *kcenter.Scratch `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 1
	}
	if c.Delta == 0 {
		c.Delta = 0.25
	}
	if c.Rho == 0 {
		if c.Variant == TwoRoundNoOutliers {
			c.Rho = 1 + c.Delta
		} else {
			c.Rho = 2
		}
	}
	if c.HullBase == 0 {
		c.HullBase = 2
	}
	c.LocalOpts.Options = c.LocalOpts.Options.Normalize()
	return c
}

// params is the part of the (defaults-applied) configuration the shared
// round skeleton reads.
func (c Config) params() protocol.Params {
	return protocol.Params{Name: "core", T: c.T, Rho: c.Rho, HullBase: c.HullBase, OneRound: c.Variant == OneRound}
}

// Result is the outcome of a distributed run.
type Result = protocol.Result

// validate rejects configuration combinations no variant supports; cfg
// must already have defaults applied. Both halves call it, so a site
// rejects a shipped configuration before any parameter reaches a solver or
// the budget grid.
func validate(cfg Config) error {
	if cfg.K <= 0 {
		return fmt.Errorf("core: K = %d", cfg.K)
	}
	if cfg.T < 0 {
		return fmt.Errorf("core: T = %d", cfg.T)
	}
	// Delta before Rho: the no-ship default derives Rho from it.
	for _, f := range []struct {
		name string
		v    float64
	}{{"Eps", cfg.Eps}, {"Delta", cfg.Delta}, {"Rho", cfg.Rho}, {"HullBase", cfg.HullBase}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s = %v is not finite", f.name, f.v)
		}
	}
	if cfg.Eps < 0 || math.IsInf((1+cfg.Eps)*float64(cfg.T), 0) {
		return fmt.Errorf("core: Eps = %v: want Eps >= 0 and a finite (1+Eps)T (T = %d)", cfg.Eps, cfg.T)
	}
	if cfg.Variant < TwoRound || cfg.Variant > OneRound {
		return fmt.Errorf("core: unknown variant %v", cfg.Variant)
	}
	switch cfg.Objective {
	case Center:
		if cfg.RelaxCenters {
			return fmt.Errorf("core: RelaxCenters applies to median/means only")
		}
		if cfg.LloydPolish {
			return fmt.Errorf("core: LloydPolish applies to means only")
		}
	case Median, Means:
		if cfg.LloydPolish && cfg.Objective != Means {
			return fmt.Errorf("core: LloydPolish applies to means only")
		}
	default:
		return fmt.Errorf("core: unknown objective %v", cfg.Objective)
	}
	return nil
}

// Run executes the configured distributed partial clustering over the given
// site datasets and returns the chosen centers plus the measured footprint.
// Sites run in-process over the backend cfg.Transport selects.
func Run(sites [][]metric.Point, cfg Config) (Result, error) {
	return RunCtx(context.Background(), sites, cfg)
}

// RunCtx is Run under a context: cancelling ctx (or passing one with a
// deadline) aborts the protocol between site computations and returns
// ctx.Err() promptly, without waiting for in-flight site solves.
func RunCtx(ctx context.Context, sites [][]metric.Point, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// Preemption reaches inside the solvers, not just between rounds: the
	// site handlers built below inherit ctx through LocalOpts, so a
	// cancellation also stops local-search descent and JV probes mid-solve.
	cfg.LocalOpts.Ctx = ctx
	return protocol.RunLocal(ctx, cfg.params(), cfg.Transport, cfg.Topology, sites,
		func(i int) (transport.Handler, error) { return NewSiteHandlerOracle(cfg, i, sites[i], nil) },
		func(tr transport.Transport) (Result, error) { return RunOverCtx(ctx, tr, cfg) })
}

// RunOverCtx executes the coordinator side of the protocol over an
// already-connected transport; every site must be served elsewhere with a
// handler built by NewSiteHandlerOracle from the identical Config (the
// coordinator ships the config in a job frame to guarantee this — see
// internal/jobwire). Cancelling ctx aborts the round loop and the
// coordinator solve promptly with ctx.Err(). The transport is left open;
// the caller closes it.
func RunOverCtx(ctx context.Context, tr transport.Transport, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// The coordinator-side solve is preemptible too; remote site handlers
	// live elsewhere and inherit their own ctx from whoever built them.
	cfg.LocalOpts.Ctx = ctx
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	res, err := protocol.Run(ctx, tr, cfg.params(), newReducer(cfg))
	if err != nil {
		return Result{}, err
	}
	res.OutlierBudget = outlierEntitlement(cfg, res.SiteBudgets)
	return res, nil
}

// NewSiteHandlerOracle builds the site half of the protocol for site i
// holding pts — a transport.Handler that consumes each round's downstream
// message and produces the site's reply — over an externally owned distance
// oracle. A long-running site (the job server's in-process shards,
// or dpc-site) builds one DistCache per shard and passes it to the handler
// of every job that queries the same points, so memoized distances stay
// warm across jobs. Oracles are exact, so results are bit-identical to a
// private-oracle run. o may be nil (a private oracle — memoized or raw — is
// built per metric.Memoizes); otherwise it must be built over exactly pts.
func NewSiteHandlerOracle(cfg Config, site int, pts []metric.Point, o metric.Oracle) (transport.Handler, error) {
	return NewPersistentSiteHandler(cfg, site, pts, o, nil)
}

// NewPersistentSiteHandler is NewSiteHandlerOracle for a site that outlives
// its jobs (jobwire.ServeJobs): memo, when non-nil, is the site's
// farthest-first traversal of pts, which its center jobs read as a prefix
// instead of traversing the shard again. Centers and bytes are those of a
// fresh site.
func NewPersistentSiteHandler(cfg Config, site int, pts []metric.Point, o metric.Oracle, memo *kcenter.TraversalMemo) (transport.Handler, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: site %d is empty", site)
	}
	if site < 0 {
		return nil, fmt.Errorf("core: negative site id %d", site)
	}
	if o != nil && o.N() != len(pts) {
		return nil, fmt.Errorf("core: site %d oracle over %d points, shard has %d", site, o.N(), len(pts))
	}
	if cfg.Objective == Center {
		return protocol.Handler(cfg.params(), site, newCenterSite(cfg, pts, o, memo)), nil
	}
	return protocol.Handler(cfg.params(), site, newMedianSite(cfg, site, pts, o)), nil
}

// CostsOver wraps points in the objective's cost oracle: pairwise distances
// are memoized (exactly — cached and uncached runs are bit-identical) where
// metric.Memoizes says the cache pays for itself, and squared for means.
func CostsOver(pts []metric.Point, obj Objective) metric.Costs {
	return costsShared(metric.CacheSpace(metric.NewPoints(pts)), obj)
}

// costsShared layers the objective's cost view over an externally owned
// space/oracle: the oracle serves unsquared distances (it wraps the raw
// point metric), so median, means and center jobs over the same shard all
// share one memoized triangle — means solves square on top per lookup,
// exactly like CostsOver's layering.
func costsShared(sp metric.Space, obj Objective) metric.Costs {
	c := metric.Costs(metric.SelfCosts{S: sp})
	if obj == Means {
		return metric.Squared{C: c}
	}
	return c
}

// Evaluate computes the true global partial cost of centers on the full
// dataset: kmedian.Eval over metric.Cross at floor(budget), so every point
// connects to its nearest center, the floor(budget) farthest points are
// free (none for a budget below 1), and the rest are summed (median,
// means) or maxed (center). This is the measuring stick for all
// experiments (the coordinator itself never sees the full data).
func Evaluate(pts []metric.Point, centers []metric.Point, budget float64, obj Objective) float64 {
	cross := metric.Cross{Pts: pts, Centers: centers, Squared: obj == Means}
	all := make([]int, len(centers))
	for i := range all {
		all[i] = i
	}
	sol := kmedian.Eval(cross, nil, all, math.Floor(budget))
	if obj != Center || len(centers) == 0 {
		return sol.Cost
	}
	for _, j := range sol.Order {
		if sol.DroppedWeight[j] == 0 {
			if f := sol.Assign[j]; f >= 0 {
				return cross.Cost(j, f)
			}
			return math.Inf(1) // no finite cost to any center
		}
	}
	return 0
}

// FlattenSites concatenates per-site point slices (evaluation helper).
func FlattenSites(sites [][]metric.Point) []metric.Point {
	var out []metric.Point
	for _, pts := range sites {
		out = append(out, pts...)
	}
	return out
}
