package core

import (
	"fmt"

	"dpc/internal/comm"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// medianSite is the site half of Algorithm 1: the local (2k, q)-median
// solves behind the cost curve, and the preclustering one of them induces.
type medianSite struct {
	protocol.BudgetSolver // the local (2k, q)-median solves
	cfg                   Config
	pts                   []metric.Point
}

// newMedianSite builds site i's state; cfg must already have defaults
// applied. Per-site seeds are derived from LocalOpts.Seed + site index.
// o, when non-nil, is an externally owned (job-server shared) distance
// oracle over pts; a private one is built by CostsOver otherwise.
func newMedianSite(cfg Config, site int, pts []metric.Point, o metric.Oracle) *medianSite {
	opts := cfg.LocalOpts
	opts.Seed += int64(site) * 1000003
	var costs metric.Costs
	if o != nil {
		costs = costsShared(o, cfg.Objective)
	} else {
		costs = CostsOver(pts, cfg.Objective)
	}
	return &medianSite{
		BudgetSolver: protocol.BudgetSolver{Costs: costs, K: 2 * cfg.K, Opts: opts},
		cfg:          cfg,
		pts:          pts,
	}
}

// Len implements protocol.Site.
func (st *medianSite) Len() int { return len(st.pts) }

// Curve implements protocol.Site: the grid of local solves (Lines 1-4).
func (st *medianSite) Curve(_ int, grid []int) []float64 { return st.BudgetSolver.Curve(grid) }

// Precluster implements protocol.Site: the budget's local solution as
// centers with attached inlier counts (Remark 1(i): no input point is lost —
// points either weigh on a center or ship as outliers) plus the ignored
// points themselves (Line 15 of Algorithm 1). The Theorem 3.8 variant ships
// the counts only.
func (st *medianSite) Precluster(b protocol.Budget) comm.Payload {
	if st.cfg.Variant == TwoRoundNoOutliers {
		sol := st.Solve(b.Lo)
		if b.Lo != b.Hi {
			// Lemma 3.7 at the exceptional site: the union of the two
			// hull-vertex solutions' centers (at most 4k), every point at its
			// nearest one, the t_i farthest ignored.
			seen := make(map[int]bool)
			var union []int
			for _, f := range append(append([]int(nil), sol.Centers...), st.Solve(b.Hi).Centers...) {
				if !seen[f] {
					seen[f] = true
					union = append(union, f)
				}
			}
			sol = kmedian.Eval(st.Costs, nil, union, float64(b.T))
		}
		return comm.WeightedPointsMsg{Pts: protocol.PointsAt(st.pts, sol.Centers), W: sol.CenterWeights()}
	}
	sol := st.Solve(b.T)
	return comm.Multi{Parts: []comm.Payload{
		comm.WeightedPointsMsg{Pts: protocol.PointsAt(st.pts, sol.Centers), W: sol.CenterWeights()},
		comm.PointsMsg{Pts: protocol.PointsAt(st.pts, sol.Outliers())},
	}}
}

// reducer is the coordinator half of Algorithms 1 and 2: the union of the
// sites' weighted centers (and shipped outliers, at weight 1), solved for
// the configured objective.
type reducer struct {
	cfg Config
	pts []metric.Point
	wts []float64
	// union rejects what no honest site ships (protocol.Union.Admit).
	union protocol.Union
}

// newReducer is the coordinator half for cfg.
func newReducer(cfg Config) *reducer {
	return &reducer{cfg: cfg, union: protocol.Union{Squared: cfg.Objective == Means}}
}

// Add implements protocol.Reducer. Median/means sites ship their outliers
// beside the centers unless the variant is Theorem 3.8's; center sites ship
// one weighted point set under every variant.
func (r *reducer) Add(b []byte) error {
	var outs comm.PointsMsg
	if r.cfg.Objective != Center && r.cfg.Variant != TwoRoundNoOutliers {
		parts, err := comm.SplitMulti(b)
		if err == nil && len(parts) != 2 {
			err = fmt.Errorf("malformed precluster payload (%d parts)", len(parts))
		}
		if err == nil {
			b, err = parts[0], outs.UnmarshalBinary(parts[1])
		}
		if err != nil {
			return err
		}
	}
	var centers comm.WeightedPointsMsg
	if err := centers.UnmarshalBinary(b); err != nil {
		return err
	}
	pts, w := append(centers.Pts, outs.Pts...), centers.W
	for range outs.Pts {
		w = append(w, 1)
	}
	if err := r.union.Admit(pts, w, nil); err != nil {
		return err
	}
	r.pts = append(r.pts, pts...)
	r.wts = append(r.wts, w...)
	return nil
}

// Solve implements protocol.Reducer: the Theorem 3.1 solve with budget
// (1+eps)t for median/means (Line 17), the greedy of [4] with exactly t
// outliers for center.
func (r *reducer) Solve(res *Result) {
	cfg := r.cfg
	res.CoordinatorClients = len(r.pts)
	if cfg.Objective == Center {
		// No distance cache here: the fast engine asks for every distance
		// once (the upper triangle, for a *metric.Points) and works from
		// its own sorted copy, in the caller's scratch when there is one.
		sol := cfg.CenterScratch.Partial(metric.NewPoints(r.pts), r.wts, cfg.K, float64(cfg.T), cfg.LocalOpts.Options)
		res.Centers, res.CoordinatorCost = protocol.PointsAt(r.pts, sol.Centers), sol.Radius
		return
	}
	copt := cfg.LocalOpts
	copt.Seed += 7777777
	relax := kmedian.RelaxOutliers
	if cfg.RelaxCenters {
		relax = kmedian.RelaxCenters
	}
	sol := kmedian.Bicriteria(CostsOver(r.pts, cfg.Objective), r.wts, cfg.K, float64(cfg.T), cfg.Eps, relax, copt)
	res.Centers, res.CoordinatorCost = protocol.PointsAt(r.pts, sol.Centers), sol.Cost
	if cfg.LloydPolish && cfg.Objective == Means {
		res.Centers, res.CoordinatorCost = kmedian.LloydPolish(r.pts, r.wts, res.Centers, sol.Budget, 32)
	}
}

// outlierEntitlement returns the number of points the final solution is
// allowed to ignore, per the theorem governing the configured variant: the
// coordinator's budget — t for center and for the second branch of Theorem
// 3.1 (extra centers, exact t outliers), (1+eps)t otherwise — plus, under
// the no-ship variants, the sum(t_i) <= (1+delta)t + t points the sites'
// preclusterings silently ignored (Theorem 3.8: (2+eps+delta)t in total).
// Under the other variants shipped outliers are all candidates again and
// only the coordinator's budget is ignored.
func outlierEntitlement(cfg Config, siteBudgets []int) float64 {
	coord := float64(cfg.T)
	if cfg.Objective != Center && !cfg.RelaxCenters {
		coord = (1 + cfg.Eps) * float64(cfg.T)
	}
	dropped := 0
	if cfg.Variant == TwoRoundNoOutliers {
		for _, b := range siteBudgets {
			dropped += b
		}
	}
	return coord + float64(dropped)
}
