package core

import (
	"dpc/internal/comm"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// centerSite is the site half of Algorithm 2: one Gonzalez traversal to
// k+t points, whose insertion radii are the slope witnesses of the cost
// curve and whose prefixes are every possible preclustering.
type centerSite struct {
	cfg     Config
	pts     []metric.Point
	space   metric.Space // cached where metric.Memoizes says it pays
	memo    *kcenter.TraversalMemo
	trav    kcenter.Traversal
	started bool
}

// newCenterSite builds a site's state; cfg must already have defaults
// applied. The site metric is served through the memoized distance cache
// (where metric.Memoizes says it pays), so the traversal, the prefix
// assignments and the no-ship drop scan all pay for each pairwise distance
// once. o, when non-nil, is an externally owned (job-server shared) oracle
// over pts and replaces the private one; memo, when non-nil, is the
// persistent site's traversal of pts, kept across jobs.
func newCenterSite(cfg Config, pts []metric.Point, o metric.Oracle, memo *kcenter.TraversalMemo) *centerSite {
	var space metric.Space = o
	if o == nil {
		space = metric.CacheSpace(metric.NewPoints(pts))
	}
	return &centerSite{cfg: cfg, pts: pts, space: space, memo: memo}
}

// traversal runs the Gonzalez traversal lazily on the site's first round,
// so the O((k+t) n_i) work executes on the site side of the transport — in
// parallel with the other sites, and counted as site compute time. One
// run to k+t points serves both the slope witnesses and every possible
// preclustering prefix. A persistent site reads it from its memo instead
// (the identical prefix); a Reference-engine job always computes its own,
// so an engine comparison still compares two traversals.
func (st *centerSite) traversal() kcenter.Traversal {
	if !st.started {
		st.started = true
		m, o := st.cfg.K+st.cfg.T, st.cfg.LocalOpts.Options
		if st.memo != nil && !o.Reference {
			st.trav = st.memo.Prefix(st.space, m, o)
		} else {
			st.trav = kcenter.GonzalezOpt(st.space, m, 0, o)
		}
	}
	return st.trav
}

// Len implements protocol.Site.
func (st *centerSite) Len() int { return len(st.pts) }

// Curve implements protocol.Site: the convex surrogate
// f_i(q) = sum_{r>q} l(i,r) over the traversal's insertion radii — the
// "subsequent steps as in Algorithm 1" (Line 7) with O(log t)
// communication.
func (st *centerSite) Curve(_ int, grid []int) []float64 {
	return st.traversal().SlopeSuffix(st.cfg.K, grid)
}

// Precluster implements protocol.Site: the first k+t_i traversal points
// with attached counts; Remark 3(i): no original point is ignored in the
// preclustering.
//
// The TwoRoundNoOutliers variant (Appendix A's "(2+delta)t" center row,
// comm Otilde(s/delta + sk B)) ships only the first k centers: every point
// is assigned to one of them, the t_i farthest are silently ignored (they
// are counted into the global (2+delta)t entitlement) and no outlier-shaped
// bytes cross the wire.
func (st *centerSite) Precluster(b protocol.Budget) comm.Payload {
	trav := st.traversal()
	m := st.cfg.K
	if st.cfg.Variant != TwoRoundNoOutliers {
		m += b.T
	}
	if m > len(trav.Order) {
		m = len(trav.Order)
	}
	assign, counts, _ := trav.AssignPrefixOpt(st.space, m, nil, st.cfg.LocalOpts.Options)
	if st.cfg.Variant == TwoRoundNoOutliers {
		// t_i is below the hull domain, hence < n: exactly t_i points drop.
		sol := kmedian.Eval(metric.SelfCosts{S: st.space}, nil, trav.Order[:m], float64(b.T))
		for j, dw := range sol.DroppedWeight {
			if dw > 0 {
				counts[assign[j]]--
			}
		}
	}
	return comm.WeightedPointsMsg{Pts: protocol.PointsAt(st.pts, trav.Order[:m]), W: counts}
}
