package core

import (
	"fmt"

	"dpc/internal/alloc"
	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// medianSite is the site half of Algorithm 1: per-site state kept between
// the two rounds, driven purely by the round number and the wire bytes the
// coordinator sent — so the same code runs in-process (loopback) and in a
// separate dpc-site process (TCP).
type medianSite struct {
	cfg    Config
	site   int
	pts    []metric.Point
	costs  metric.Costs
	fn     geom.ConvexFn
	sols   map[int]kmedian.Solution
	opts   kmedian.Options
	budget int // t_i chosen in round 2
}

// newMedianSite builds site i's state; cfg must already have defaults
// applied. Per-site seeds are derived from LocalOpts.Seed + site index.
// o, when non-nil, is an externally owned (job-server shared) distance
// oracle over pts; a private one is built from the engine knobs otherwise.
func newMedianSite(cfg Config, site int, pts []metric.Point, o metric.Oracle) *medianSite {
	opts := cfg.LocalOpts
	opts.Seed += int64(site) * 1000003
	var costs metric.Costs
	if o != nil {
		costs = costsShared(o, cfg.Objective)
	} else {
		costs = costsOver(pts, cfg.Objective, cfg.Options)
	}
	return &medianSite{
		cfg:   cfg,
		site:  site,
		pts:   pts,
		costs: costs,
		sols:  make(map[int]kmedian.Solution),
		opts:  opts,
	}
}

// handle implements transport.Handler for Algorithm 1's site side.
func (st *medianSite) handle(round int, in []byte) ([]byte, error) {
	cfg := st.cfg
	k2 := 2 * cfg.K
	switch {
	case cfg.Variant == OneRound && round == 0:
		// Baseline: solve with the full budget t and ship centers plus
		// t outliers in a single round.
		st.budget = capBudget(cfg.T, len(st.pts))
		sol := st.solve(k2, st.budget, cfg.Engine)
		return comm.Encode(st.preclusterPayload(sol, true))

	case round == 0:
		// Round 1: grid of local solves, hull up (Lines 1-6).
		tcap := capBudget(cfg.T, len(st.pts))
		samples := make([]geom.Vertex, 0, 8)
		var warm []int
		for _, q := range geom.Grid(tcap, cfg.HullBase) {
			st.opts.Warm = warm
			sol := st.solve(k2, q, cfg.Engine)
			warm = sol.Centers
			samples = append(samples, geom.Vertex{Q: q, C: sol.Cost})
		}
		st.opts.Warm = nil
		fn, err := geom.NewConvexFn(samples)
		if err != nil {
			return nil, fmt.Errorf("core: site hull: %w", err)
		}
		st.fn = fn
		return comm.Encode(comm.HullMsg{V: fn.Vertices()})

	case round == 1 && cfg.Variant != OneRound:
		// Round 2: derive t_i from the pivot and ship the preclustering
		// (Lines 10-16 / modified Lines 12-19).
		var pm comm.PivotMsg
		if err := pm.UnmarshalBinary(in); err != nil {
			return nil, fmt.Errorf("core: site pivot: %w", err)
		}
		pivot := alloc.Pivot{I0: pm.I0, Q0: pm.Q0, L0: pm.L0, Rank: pm.Rank, Exhausted: pm.Exhausted}
		i := st.site
		ti := alloc.FinalBudget(st.fn, i, pivot)
		st.budget = ti
		shipOutliers := cfg.Variant != TwoRoundNoOutliers
		if shipOutliers {
			return comm.Encode(st.preclusterPayload(st.solve(k2, ti, cfg.Engine), true))
		}
		// Theorem 3.8 variant.
		if i != pivot.I0 || st.fn.IsVertex(ti) {
			// t_i is a hull vertex: its solution achieves f_i(t_i).
			return comm.Encode(st.preclusterPayload(st.solve(k2, ti, cfg.Engine), false))
		}
		lo := st.fn.PrevVertex(ti)
		hi := st.fn.NextVertex(ti)
		combined := combineTwoSolutions(st, st.solve(k2, lo, cfg.Engine), st.solve(k2, hi, cfg.Engine), ti)
		return comm.Encode(st.preclusterPayload(combined, false))
	}
	return nil, fmt.Errorf("core: median site has no round %d for variant %v", round, cfg.Variant)
}

// solve returns (computing and caching if needed) the site's local solution
// with 2k centers and budget q.
func (st *medianSite) solve(k2, q int, engine kmedian.Engine) kmedian.Solution {
	if sol, ok := st.sols[q]; ok {
		return sol
	}
	sol := kmedian.Solve(st.costs, nil, k2, float64(q), engine, st.opts)
	st.sols[q] = sol
	return sol
}

// preclusterPayload converts a local solution into the round-2 site message:
// the centers with attached inlier counts and, when shipOutliers is set, the
// ignored points themselves (Line 15 of Algorithm 1).
func (st *medianSite) preclusterPayload(sol kmedian.Solution, shipOutliers bool) comm.Payload {
	centers, weights := aggregateCenters(st.pts, sol)
	msg := comm.WeightedPointsMsg{Pts: centers, W: weights}
	if !shipOutliers {
		return msg
	}
	var outs []metric.Point
	for j, w := range sol.DroppedWeight {
		if w > 0 {
			outs = append(outs, st.pts[j])
		}
	}
	return comm.Multi{Parts: []comm.Payload{msg, comm.PointsMsg{Pts: outs}}}
}

// aggregateCenters maps a local solution to (center points, inlier weight
// attached to each center). Per Remark 1(i), no input point is lost: points
// either contribute weight to a center or ship as outliers.
func aggregateCenters(pts []metric.Point, sol kmedian.Solution) ([]metric.Point, []float64) {
	idx := make(map[int]int, len(sol.Centers))
	centers := make([]metric.Point, 0, len(sol.Centers))
	weights := make([]float64, 0, len(sol.Centers))
	for _, f := range sol.Centers {
		idx[f] = len(centers)
		centers = append(centers, pts[f])
		weights = append(weights, 0)
	}
	for j, f := range sol.Assign {
		if f < 0 {
			continue
		}
		inW := 1 - sol.DroppedWeight[j]
		if inW > 0 {
			weights[idx[f]] += inW
		}
	}
	return centers, weights
}

// combineTwoSolutions implements Lemma 3.7 for the exceptional site of the
// no-ship variant: take the union of the centers of the two hull-vertex
// solutions (at most 4k), attach every point to its nearest combined
// center, and ignore the ti points with the largest distances.
func combineTwoSolutions(st *medianSite, a, b kmedian.Solution, ti int) kmedian.Solution {
	seen := make(map[int]bool)
	var union []int
	for _, f := range append(append([]int(nil), a.Centers...), b.Centers...) {
		if !seen[f] {
			seen[f] = true
			union = append(union, f)
		}
	}
	return kmedian.Eval(st.costs, nil, union, float64(ti))
}

// runMedianMeans executes the coordinator side of Algorithm 1 (or a
// variant) for the median/means objectives over an already-connected
// network of sites.
func runMedianMeans(nw *comm.Network, cfg Config) (Result, error) {
	shipOutliers := cfg.Variant != TwoRoundNoOutliers

	var roundTwo [][]byte
	var budgets []int
	if cfg.Variant == OneRound {
		// Baseline: one round, t_i = t everywhere; the coordinator never
		// learns per-site budgets (SiteBudgets stays nil).
		up, err := nw.SiteRound()
		if err != nil {
			return Result{}, err
		}
		roundTwo = up
	} else {
		// Lines 1-14: hulls up, pivot allocation + broadcast,
		// preclusterings up; budgets are the coordinator's Step-11 replay.
		var err error
		roundTwo, budgets, err = protocol.TwoRoundGather(nw, int(cfg.Rho*float64(cfg.T)), "core")
		if err != nil {
			return Result{}, err
		}
	}

	// Coordinator: union of weighted centers (+ shipped outliers), then the
	// Theorem 3.1 solve with budget (1+eps)t (Line 17).
	var result Result
	if err := nw.Coordinator(func() error {
		var pts []metric.Point
		var wts []float64
		for i, b := range roundTwo {
			cp, cw, op, err := decodePrecluster(b, shipOutliers)
			if err != nil {
				return fmt.Errorf("core: precluster from site %d: %w", i, err)
			}
			pts = append(pts, cp...)
			wts = append(wts, cw...)
			for _, o := range op {
				pts = append(pts, o)
				wts = append(wts, 1)
			}
		}
		costs := costsOver(pts, cfg.Objective, cfg.Options)
		copt := cfg.LocalOpts
		copt.Seed += 7777777
		relax := kmedian.RelaxOutliers
		if cfg.RelaxCenters {
			relax = kmedian.RelaxCenters
		}
		sol := kmedian.Bicriteria(costs, wts, cfg.K, float64(cfg.T), cfg.Eps, relax, cfg.Engine, copt)
		result.Centers = pointsAt(pts, sol.Centers)
		result.CoordinatorClients = len(pts)
		result.CoordinatorCost = sol.Cost
		if cfg.LloydPolish && cfg.Objective == Means {
			polished, pcost := kmedian.LloydPolish(pts, wts, result.Centers, sol.Budget, 32)
			result.Centers = polished
			result.CoordinatorCost = pcost
		}
		return nil
	}); err != nil {
		return Result{}, err
	}

	result.Report = nw.Report()
	result.SiteBudgets = budgets
	result.OutlierBudget = outlierEntitlement(cfg, budgets)
	return result, nil
}

// capBudget bounds a site budget so at least one point remains clustered.
func capBudget(t, n int) int {
	if t >= n {
		return n - 1
	}
	return t
}

// decodePrecluster splits a round-2 site message into centers, weights and
// shipped outliers.
func decodePrecluster(b []byte, shipOutliers bool) ([]metric.Point, []float64, []metric.Point, error) {
	if !shipOutliers {
		var msg comm.WeightedPointsMsg
		if err := msg.UnmarshalBinary(b); err != nil {
			return nil, nil, nil, err
		}
		return msg.Pts, msg.W, nil, nil
	}
	parts, err := comm.SplitMulti(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(parts) != 2 {
		return nil, nil, nil, fmt.Errorf("core: malformed precluster payload (%d parts)", len(parts))
	}
	var centers comm.WeightedPointsMsg
	if err := centers.UnmarshalBinary(parts[0]); err != nil {
		return nil, nil, nil, err
	}
	var outs comm.PointsMsg
	if err := outs.UnmarshalBinary(parts[1]); err != nil {
		return nil, nil, nil, err
	}
	return centers.Pts, centers.W, outs.Pts, nil
}

// pointsAt materializes facility indices as points.
func pointsAt(pts []metric.Point, idx []int) []metric.Point {
	out := make([]metric.Point, len(idx))
	for i, f := range idx {
		out[i] = pts[f].Clone()
	}
	return out
}

// outlierEntitlement returns the number of points the final solution is
// allowed to ignore, per the theorem governing the configured variant.
func outlierEntitlement(cfg Config, siteBudgets []int) float64 {
	coord := (1 + cfg.Eps) * float64(cfg.T)
	if cfg.RelaxCenters {
		// The second branch of Theorem 3.1: extra centers, exact t outliers.
		coord = float64(cfg.T)
	}
	switch cfg.Variant {
	case TwoRoundNoOutliers:
		// Preclusterings silently ignored sum(t_i) <= (1+delta)t + t points
		// (Theorem 3.8: (2+eps+delta)t in total).
		dropped := 0
		for _, b := range siteBudgets {
			dropped += b
		}
		return coord + float64(dropped)
	case OneRound:
		// Shipped outliers are all candidates again; only the coordinator
		// budget is silently ignored.
		return coord
	default:
		return coord
	}
}
