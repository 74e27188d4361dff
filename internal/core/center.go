package core

import (
	"fmt"
	"sort"

	"dpc/internal/alloc"
	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/kcenter"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// centerSite is the site half of Algorithm 2, driven by round number and
// wire bytes like medianSite.
type centerSite struct {
	cfg     Config
	site    int
	pts     []metric.Point
	space   metric.Space // cached unless cfg.NoCache
	trav    kcenter.Traversal
	fn      geom.ConvexFn
	budget  int
	started bool
}

// newCenterSite builds site i's state; cfg must already have defaults
// applied. The site metric is served through the memoized distance cache
// (unless disabled), so the traversal, the prefix assignments and the
// no-ship drop scan all pay for each pairwise distance once; with
// cfg.Index set, a pivot index over the cache additionally prunes those
// scans. o, when non-nil, is an externally owned (job-server shared)
// oracle over pts and replaces the private stack.
func newCenterSite(cfg Config, site int, pts []metric.Point, o metric.Oracle) *centerSite {
	var space metric.Space
	if o != nil {
		space = o
	} else {
		space = metric.NewPoints(pts)
		if !cfg.NoCache {
			space = metric.CacheSpace(space)
		}
		space = metric.IndexSpace(space, cfg.Index, cfg.Pivots)
	}
	return &centerSite{cfg: cfg, site: site, pts: pts, space: space}
}

// start runs the Gonzalez traversal lazily on the first round, so the
// O((k+t) n_i) work executes on the site side of the transport — in
// parallel with the other sites, and counted as site compute time. One
// run to k+t points serves both the slope witnesses and every possible
// preclustering prefix.
func (st *centerSite) start() {
	if st.started {
		return
	}
	st.started = true
	st.trav = kcenter.GonzalezOpt(st.space, st.cfg.K+st.cfg.T, 0, st.cfg.Options)
}

// handle implements transport.Handler for Algorithm 2's site side.
func (st *centerSite) handle(round int, in []byte) ([]byte, error) {
	st.start()
	cfg := st.cfg
	switch {
	case cfg.Variant == OneRound && round == 0:
		st.budget = cfg.T
		return comm.Encode(st.payload())

	case round == 0:
		// Round 1: sample the convex surrogate f_i(q) = sum_{r>q} l(i,r)
		// on the geometric grid and ship its hull — the "subsequent steps
		// as in Algorithm 1" (Line 7) with O(log t) communication.
		tcap := capBudget(cfg.T, len(st.pts))
		grid := geom.Grid(tcap, cfg.HullBase)
		// Suffix sums of slopes once, then sample.
		suffix := make([]float64, tcap+2)
		for q := tcap; q >= 1; q-- {
			suffix[q] = suffix[q+1] + st.slope(cfg.K, q)
		}
		samples := make([]geom.Vertex, 0, len(grid))
		for _, q := range grid {
			samples = append(samples, geom.Vertex{Q: q, C: suffix[q+1]})
		}
		fn, err := geom.NewConvexFn(samples)
		if err != nil {
			return nil, fmt.Errorf("core: center site hull: %w", err)
		}
		st.fn = fn
		return comm.Encode(comm.HullMsg{V: fn.Vertices()})

	case round == 1 && cfg.Variant != OneRound:
		var pm comm.PivotMsg
		if err := pm.UnmarshalBinary(in); err != nil {
			return nil, fmt.Errorf("core: center site pivot: %w", err)
		}
		pivot := alloc.Pivot{I0: pm.I0, Q0: pm.Q0, L0: pm.L0, Rank: pm.Rank, Exhausted: pm.Exhausted}
		st.budget = alloc.FinalBudget(st.fn, st.site, pivot)
		return comm.Encode(st.payload())
	}
	return nil, fmt.Errorf("core: center site has no round %d for variant %v", round, cfg.Variant)
}

// payload ships the first k+ti traversal points with attached counts;
// Remark 3(i): no original point is ignored in the preclustering.
//
// The TwoRoundNoOutliers variant (Appendix A's "(2+delta)t" center row,
// comm Otilde(s/delta + sk B)) ships only the first k centers: the
// points attached to the t_i outlier-region centers are silently
// ignored (counted into the global (2+delta)t entitlement) and no
// outlier-shaped bytes cross the wire.
func (st *centerSite) payload() comm.Payload {
	if st.cfg.Variant == TwoRoundNoOutliers {
		return st.noShipPayload(st.cfg.K)
	}
	m := st.cfg.K + st.budget
	if m > len(st.trav.Order) {
		m = len(st.trav.Order)
	}
	_, counts, _ := st.trav.AssignPrefixOpt(st.space, m, nil, st.cfg.Options)
	pts := make([]metric.Point, m)
	for c := 0; c < m; c++ {
		pts[c] = st.pts[st.trav.Order[c]]
	}
	return comm.WeightedPointsMsg{Pts: pts, W: counts}
}

// noShipPayload implements Appendix A's "(2+delta)t" center row: assign
// every point to the first k traversal centers, silently ignore the t_i
// farthest points (they are counted into the global entitlement but never
// cross the wire), and ship only the k centers with the surviving counts.
func (st *centerSite) noShipPayload(k int) comm.Payload {
	if k > len(st.trav.Order) {
		k = len(st.trav.Order)
	}
	n := len(st.pts)
	assign, _, _ := st.trav.AssignPrefixOpt(st.space, k, nil, st.cfg.Options)
	dist := make([]float64, n)
	order := make([]int, n)
	for j := 0; j < n; j++ {
		dist[j] = st.space.Dist(j, st.trav.Order[assign[j]])
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return dist[order[a]] > dist[order[b]] })
	drop := st.budget
	if drop > n {
		drop = n
	}
	dropped := make([]bool, n)
	for i := 0; i < drop; i++ {
		dropped[order[i]] = true
	}
	counts := make([]float64, k)
	for j := 0; j < n; j++ {
		if !dropped[j] {
			counts[assign[j]]++
		}
	}
	pts := make([]metric.Point, k)
	for c := 0; c < k; c++ {
		pts[c] = st.pts[st.trav.Order[c]]
	}
	return comm.WeightedPointsMsg{Pts: pts, W: counts}
}

// slope returns l(i,q): the insertion radius of the (k+q)-th point of the
// Gonzalez re-ordering, min{d(a_j, a_{k+q}) : j < k+q} (Line 4 of
// Algorithm 2). Sites with fewer than k+q points have run out of mass to
// ignore: the marginal saving is 0.
func (st *centerSite) slope(k, q int) float64 {
	idx := k + q - 1 // 0-indexed position of the (k+q)-th point
	if idx >= len(st.trav.Order) {
		return 0
	}
	return st.trav.Radii[idx]
}

// runCenter executes the coordinator side of Algorithm 2 for the
// (k,t)-center objective (TwoRound) or the 1-round t_i = t baseline.
func runCenter(nw *comm.Network, cfg Config) (Result, error) {
	var roundTwo [][]byte
	var budgets []int
	if cfg.Variant == OneRound {
		up, err := nw.SiteRound()
		if err != nil {
			return Result{}, err
		}
		roundTwo = up
	} else {
		var err error
		roundTwo, budgets, err = protocol.TwoRoundGather(nw, int(cfg.Rho*float64(cfg.T)), "core")
		if err != nil {
			return Result{}, err
		}
	}

	// Coordinator: weighted (k,t)-center with exactly t outliers on the
	// union of precluster centers, via the greedy of [4].
	var result Result
	if err := nw.Coordinator(func() error {
		var pts []metric.Point
		var wts []float64
		for i, b := range roundTwo {
			var msg comm.WeightedPointsMsg
			if err := msg.UnmarshalBinary(b); err != nil {
				return fmt.Errorf("core: center precluster from site %d: %w", i, err)
			}
			pts = append(pts, msg.Pts...)
			wts = append(wts, msg.W...)
		}
		// No distance cache here: PartialOpt's fast engine asks for every
		// distance once (the upper triangle, for a *metric.Points) and
		// works from its own sorted copy.
		space := metric.NewPoints(pts)
		sol := kcenter.PartialOpt(space, wts, cfg.K, float64(cfg.T), cfg.Options)
		result.Centers = pointsAt(pts, sol.Centers)
		result.CoordinatorClients = len(pts)
		result.CoordinatorCost = sol.Radius
		return nil
	}); err != nil {
		return Result{}, err
	}

	result.Report = nw.Report()
	result.SiteBudgets = budgets
	result.OutlierBudget = float64(cfg.T)
	if cfg.Variant == TwoRoundNoOutliers {
		// Each site silently dropped its t_i farthest points (t_i is at
		// most the hull domain, hence < n_i, so the drop is exactly t_i):
		// count them into the global entitlement.
		for _, b := range budgets {
			result.OutlierBudget += float64(b)
		}
	}
	return result, nil
}
