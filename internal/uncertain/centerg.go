package uncertain

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dpc/internal/alloc"
	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// CenterGConfig parameterizes Algorithm 4.
type CenterGConfig struct {
	K int
	T int

	Eps      float64 // outlier slack of the output ((1+eps)t); default 1
	Rho      float64 // allocation rank multiplier; default 2
	HullBase float64 // budget grid base; default 2
	// TauBase is the geometric step of the truncation grid
	// T = {TauBase^i * dmin/18}; the paper uses 2. Coarser grids trade
	// approximation for fewer local solves. Default 2.
	TauBase float64
	// MaxFacilities caps the per-site candidate facility set P(A_i)
	// (all realization points); larger sets are thinned deterministically.
	// Default 256.
	MaxFacilities int
	Engine        kmedian.Engine
	LocalOpts     kmedian.Options // its NoCache / Reference knobs turn the memoized oracles off
	Sequential    bool
	// OneRound runs the Table 2 single-round variant: every site ships,
	// for every tau in the grid, its full (2k, t, rho_6tau) preclustering
	// (centers + outlier distributions + cost) — communication
	// Otilde(s (kB + tI) log Delta) — and the coordinator picks tau-hat
	// from the shipped costs.
	OneRound bool
	// Transport selects the wire backend (loopback in-process by default,
	// tcp for real localhost sockets).
	Transport transport.Kind
	// Topology selects the coordinator fan-in (star by default, or an
	// aggregation tree; see internal/tree). Coordinator-local: sites
	// ignore it, and centers are byte-identical across topologies.
	Topology tree.Spec `json:"topology,omitempty"`
}

func (c CenterGConfig) withDefaults() CenterGConfig {
	if c.Eps == 0 {
		c.Eps = 1
	}
	if c.Rho == 0 {
		c.Rho = 2
	}
	if c.HullBase == 0 {
		c.HullBase = 2
	}
	if c.TauBase == 0 {
		c.TauBase = 2
	}
	if c.MaxFacilities == 0 {
		c.MaxFacilities = 256
	}
	return c
}

// CenterGResult is the outcome of Algorithm 4.
type CenterGResult struct {
	Centers []metric.Point
	// Tau is the truncation threshold the parametric search selected
	// (Step 6); Copt(A,k,t) >= Tau/3 by Lemma 5.13, so Tau is also a
	// reported lower-bound witness.
	Tau float64
	// TauGrid is the searched grid (|TauGrid| = O(log Delta)).
	TauGrid []float64
	Report  comm.Report
	// SiteBudgets are the t_i(tau-hat) of the chosen threshold (nil for
	// the 1-round variant, where every t_i = t).
	SiteBudgets   []int
	OutlierBudget float64
}

// tauGrid computes Step 2's truncation grid
// T = {base^i * dmin/18 : 0 <= i <= ceil(log Delta) + 2}. The grid is a
// deterministic function of the shared ground set, so coordinator and
// sites derive the identical grid independently — only the chosen tau-hat
// crosses the wire (in the pivot broadcast).
func tauGrid(g *Ground, base float64) ([]float64, error) {
	dmin, dmax := g.MinMax()
	if dmin <= 0 {
		return nil, fmt.Errorf("uncertain: degenerate ground set (dmin=0)")
	}
	delta := dmax / dmin
	steps := int(math.Ceil(math.Log(delta)/math.Log(base))) + 3
	grid := make([]float64, steps)
	tau := dmin / 18
	for i := range grid {
		grid[i] = tau
		tau *= base
	}
	return grid, nil
}

// cgSite is the site half of Algorithm 4.
type cgSite struct {
	cfg     CenterGConfig
	site    int
	g       *Ground
	grid    []float64
	nodes   []Node
	fac     []int                       // candidate facility indices into the ground set
	sols    map[[2]int]kmedian.Solution // (tauIdx, q) -> solution
	oracles map[int]metric.Costs        // tauIdx -> (cached) rho_tau oracle
	fns     []geom.ConvexFn             // one per tau
	budget  int
}

func newCGSite(g *Ground, nodes []Node, cfg CenterGConfig, grid []float64, site int) *cgSite {
	opts := cfg.LocalOpts
	opts.Seed += int64(site) * 1000033
	st := &cgSite{
		cfg:     cfg,
		site:    site,
		g:       g,
		grid:    grid,
		nodes:   nodes,
		sols:    make(map[[2]int]kmedian.Solution),
		oracles: make(map[int]metric.Costs),
	}
	st.cfg.LocalOpts = opts
	st.fac = facilityCandidates(nodes, cfg.MaxFacilities)
	return st
}

func (st *cgSite) solve(tauIdx int, tau6 float64, k2, q int) kmedian.Solution {
	key := [2]int{tauIdx, q}
	if sol, ok := st.sols[key]; ok {
		return sol
	}
	sol := kmedian.Solve(st.oracle(tauIdx, tau6), nil, k2, float64(q), st.cfg.Engine, st.cfg.LocalOpts)
	st.sols[key] = sol
	return sol
}

// oracle returns the rho_tau cost oracle for one truncation grid index,
// memoized behind a cost cache (unless the reference engine is selected):
// the truncated expected distances of Definition 5.7 are the most expensive
// oracle in the repository (a support-sized sum per call), and the grid of
// budget solves at a fixed tau re-reads the same entries many times.
func (st *cgSite) oracle(tauIdx int, tau6 float64) metric.Costs {
	if c, ok := st.oracles[tauIdx]; ok {
		return c
	}
	var tc metric.Costs = &TruncCosts{G: st.g, Nodes: st.nodes, Fac: st.fac, Tau: tau6}
	if !st.cfg.LocalOpts.Reference && !st.cfg.LocalOpts.NoCache {
		tc = metric.CacheCosts(tc)
	}
	st.oracles[tauIdx] = tc
	return tc
}

// wirePrecluster serializes a local solution: the chosen centers as ground
// points with attached node counts, and the outlier nodes as full
// distributions (the I-bit payload).
func (st *cgSite) wirePrecluster(sol kmedian.Solution) (comm.WeightedPointsMsg, comm.NodesMsg) {
	var centers comm.WeightedPointsMsg
	idx := make(map[int]int, len(sol.Centers))
	for _, f := range sol.Centers {
		idx[f] = len(centers.Pts)
		centers.Pts = append(centers.Pts, st.g.Pts[st.fac[f]])
		centers.W = append(centers.W, 0)
	}
	for j, f := range sol.Assign {
		if f < 0 {
			continue
		}
		if inW := 1 - sol.DroppedWeight[j]; inW > 0 {
			centers.W[idx[f]] += inW
		}
	}
	var outs comm.NodesMsg
	for j, w := range sol.DroppedWeight {
		if w > 0 {
			nd := st.nodes[j]
			wire := comm.NodeWire{Support: make([]uint32, len(nd.Support)), Prob: append([]float64(nil), nd.Prob...)}
			for q, u := range nd.Support {
				wire.Support[q] = uint32(u)
			}
			outs.Nodes = append(outs.Nodes, wire)
		}
	}
	return centers, outs
}

// handle implements transport.Handler for Algorithm 4's site side.
func (st *cgSite) handle(round int, in []byte) ([]byte, error) {
	cfg := st.cfg
	k2 := 2 * cfg.K
	switch {
	case cfg.OneRound && round == 0:
		// Table 2 variant: one round, everything for every tau —
		// Otilde(s (kB + tI) log Delta) communication.
		st.budget = capBudget(cfg.T, len(st.nodes))
		costs := make([]float64, len(st.grid))
		parts := make([]comm.Payload, 1, 1+2*len(st.grid))
		for ti, tv := range st.grid {
			sol := st.solve(ti, 6*tv, k2, st.budget)
			costs[ti] = sol.Cost
			centers, outs := st.wirePrecluster(sol)
			parts = append(parts, centers, outs)
		}
		parts[0] = comm.Float64sMsg{Vals: costs}
		return comm.Encode(comm.Multi{Parts: parts})

	case round == 0:
		// Round 1: per tau, the hull of local truncated costs (Steps 3-5).
		tcap := capBudget(cfg.T, len(st.nodes))
		budgetGrid := geom.Grid(tcap, cfg.HullBase)
		msg := comm.HullsMsg{Hulls: make([][]geom.Vertex, len(st.grid))}
		st.fns = make([]geom.ConvexFn, len(st.grid))
		for ti, tv := range st.grid {
			samples := make([]geom.Vertex, 0, len(budgetGrid))
			var warm []int
			for _, q := range budgetGrid {
				st.cfg.LocalOpts.Warm = warm
				sol := st.solve(ti, 6*tv, k2, q)
				warm = sol.Centers
				samples = append(samples, geom.Vertex{Q: q, C: sol.Cost})
			}
			st.cfg.LocalOpts.Warm = nil
			fn, err := geom.NewConvexFn(samples)
			if err != nil {
				return nil, fmt.Errorf("uncertain: center-g site hull: %w", err)
			}
			st.fns[ti] = fn
			msg.Hulls[ti] = fn.Vertices()
		}
		return comm.Encode(msg)

	case round == 1 && !cfg.OneRound:
		// Round 2: preclustering at tau-hat; centers as points, outliers
		// as full node distributions (Step 7). Tau-hat arrives in the
		// pivot broadcast; the site locates it on its own grid.
		var pm comm.PivotMsg
		if err := pm.UnmarshalBinary(in); err != nil {
			return nil, fmt.Errorf("uncertain: center-g site pivot: %w", err)
		}
		tauIdx := -1
		for ti, tv := range st.grid {
			if tv == pm.Tau {
				tauIdx = ti
				break
			}
		}
		if tauIdx < 0 {
			return nil, fmt.Errorf("uncertain: broadcast tau %g not on the site grid", pm.Tau)
		}
		pivot := alloc.Pivot{I0: pm.I0, Q0: pm.Q0, L0: pm.L0, Rank: pm.Rank, Exhausted: pm.Exhausted}
		fn := st.fns[tauIdx]
		ti := alloc.FinalBudget(fn, st.site, pivot)
		st.budget = ti
		sol := st.solve(tauIdx, 6*st.grid[tauIdx], k2, ti)
		centers, outs := st.wirePrecluster(sol)
		return comm.Encode(comm.Multi{Parts: []comm.Payload{centers, outs}})
	}
	return nil, fmt.Errorf("uncertain: center-g site has no round %d", round)
}

// NewCenterGSiteHandler builds the site half of Algorithm 4 for site i,
// deriving the tau grid from the shared ground set (a genuinely remote
// site must compute it itself; in-process runs share one grid instead).
func NewCenterGSiteHandler(g *Ground, nodes []Node, cfg CenterGConfig, site int) (transport.Handler, error) {
	cfg = cfg.withDefaults()
	grid, err := tauGrid(g, cfg.TauBase)
	if err != nil {
		return nil, err
	}
	return newCenterGSiteHandler(g, nodes, cfg, grid, site)
}

func newCenterGSiteHandler(g *Ground, nodes []Node, cfg CenterGConfig, grid []float64, site int) (transport.Handler, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("uncertain: site %d empty", site)
	}
	return newCGSite(g, nodes, cfg, grid, site).handle, nil
}

// RunCenterG executes Algorithm 4 for the uncertain (k,t)-center-g
// objective: parametric search over truncation thresholds tau, local
// (2k, q, rho_6tau)-median preclusterings per threshold, the usual
// allocation, and a final weighted truncated solve at the coordinator.
// Outlier nodes cross the wire as full distributions (the t*I term of
// Theorem 5.14). Sites run in-process over the backend cfg.Transport
// selects.
func RunCenterG(g *Ground, sites [][]Node, cfg CenterGConfig) (CenterGResult, error) {
	return RunCenterGCtx(context.Background(), g, sites, cfg)
}

// RunCenterGCtx is RunCenterG under a context: cancellation aborts the
// protocol between site computations and returns ctx.Err() promptly.
func RunCenterGCtx(ctx context.Context, g *Ground, sites [][]Node, cfg CenterGConfig) (CenterGResult, error) {
	cfg = cfg.withDefaults()
	// As in core.RunCtx: the truncated-oracle solves inherit ctx so a
	// cancelled run stops mid-solve, not just at the next gather.
	cfg.LocalOpts.Ctx = ctx
	s := len(sites)
	if s == 0 {
		return CenterGResult{}, fmt.Errorf("uncertain: no sites")
	}
	total := 0
	for i, nds := range sites {
		if len(nds) == 0 {
			return CenterGResult{}, fmt.Errorf("uncertain: site %d empty", i)
		}
		total += len(nds)
	}
	if cfg.K <= 0 || cfg.T < 0 || cfg.T >= total {
		return CenterGResult{}, fmt.Errorf("uncertain: bad K=%d T=%d", cfg.K, cfg.T)
	}
	// One grid for everyone: tauGrid costs an O(|ground|^2) min/max scan,
	// so in-process runs must not pay it once per site.
	grid, err := tauGrid(g, cfg.TauBase)
	if err != nil {
		return CenterGResult{}, err
	}
	handlers := make([]transport.Handler, s)
	for i := range sites {
		h, err := newCenterGSiteHandler(g, sites[i], cfg, grid, i)
		if err != nil {
			return CenterGResult{}, err
		}
		handlers[i] = h
	}
	tr, err := tree.NewLocal(ctx, cfg.Transport, handlers, !cfg.Sequential, cfg.Topology)
	if err != nil {
		return CenterGResult{}, err
	}
	defer tr.Close()
	return runCenterGOver(ctx, g, tr, cfg, grid)
}

// RunCenterGOverCtx executes the coordinator side of Algorithm 4 over an
// already-connected transport; cancelling ctx aborts the round loop and the
// coordinator solves promptly with ctx.Err().
func RunCenterGOverCtx(ctx context.Context, g *Ground, tr transport.Transport, cfg CenterGConfig) (CenterGResult, error) {
	cfg = cfg.withDefaults()
	cfg.LocalOpts.Ctx = ctx
	grid, err := tauGrid(g, cfg.TauBase)
	if err != nil {
		return CenterGResult{}, err
	}
	return runCenterGOver(ctx, g, tr, cfg, grid)
}

// runCenterGOver is RunCenterGOverCtx with the tau grid already computed
// (cfg must have defaults applied).
func runCenterGOver(ctx context.Context, g *Ground, tr transport.Transport, cfg CenterGConfig, grid []float64) (CenterGResult, error) {
	s := tr.Sites()
	if s == 0 {
		return CenterGResult{}, fmt.Errorf("uncertain: no sites")
	}
	nw := comm.NewOverCtx(ctx, tr)

	tauIdx := len(grid) - 1
	// centerParts/outParts hold, per site, the tau-hat preclustering as it
	// came off the wire.
	centerParts := make([]comm.WeightedPointsMsg, s)
	outParts := make([]comm.NodesMsg, s)
	var budgets []int

	if cfg.OneRound {
		oneUp, err := nw.SiteRound()
		if err != nil {
			return CenterGResult{}, err
		}
		if err := nw.Coordinator(func() error {
			sums := make([]float64, len(grid))
			multis := make([][][]byte, s)
			for i, b := range oneUp {
				parts, err := comm.SplitMulti(b)
				if err == nil && len(parts) != 1+2*len(grid) {
					err = fmt.Errorf("uncertain: %d parts, want %d", len(parts), 1+2*len(grid))
				}
				if err != nil {
					return fmt.Errorf("uncertain: one-round center-g payload from site %d: %w", i, err)
				}
				multis[i] = parts
				var cm comm.Float64sMsg
				if err := cm.UnmarshalBinary(parts[0]); err != nil {
					return fmt.Errorf("uncertain: costs from site %d: %w", i, err)
				}
				if len(cm.Vals) != len(grid) {
					return fmt.Errorf("uncertain: site %d shipped %d costs, want %d", i, len(cm.Vals), len(grid))
				}
				for ti, v := range cm.Vals {
					sums[ti] += v
				}
			}
			tauIdx = len(grid) - 1
			for ti, tv := range grid {
				if sums[ti] <= 12*tv {
					tauIdx = ti
					break
				}
			}
			for i, parts := range multis {
				if err := centerParts[i].UnmarshalBinary(parts[1+2*tauIdx]); err != nil {
					return fmt.Errorf("uncertain: centers from site %d: %w", i, err)
				}
				if err := outParts[i].UnmarshalBinary(parts[2+2*tauIdx]); err != nil {
					return fmt.Errorf("uncertain: outliers from site %d: %w", i, err)
				}
			}
			return nil
		}); err != nil {
			return CenterGResult{}, err
		}
	} else {
		hullUp, err := nw.SiteRound()
		if err != nil {
			return CenterGResult{}, err
		}

		// Coordinator: tau-hat = min{tau : sum_i f_i(t_i(tau)) <= 12 tau}
		// (Step 6), then the pivot for tau-hat.
		var pivot alloc.Pivot
		var ts []int
		if err := nw.Coordinator(func() error {
			all := make([][]geom.ConvexFn, len(grid)) // [tau][site]
			for ti := range grid {
				all[ti] = make([]geom.ConvexFn, s)
			}
			for i, b := range hullUp {
				var msg comm.HullsMsg
				if err := msg.UnmarshalBinary(b); err != nil {
					return fmt.Errorf("uncertain: hulls from site %d: %w", i, err)
				}
				if len(msg.Hulls) != len(grid) {
					return fmt.Errorf("uncertain: site %d shipped %d hulls, want %d", i, len(msg.Hulls), len(grid))
				}
				for ti := range grid {
					fn, err := geom.NewConvexFn(msg.Hulls[ti])
					if err != nil {
						return fmt.Errorf("uncertain: hull %d from site %d: %w", ti, i, err)
					}
					all[ti][i] = fn
				}
			}
			R := int(cfg.Rho * float64(cfg.T))
			found := false
			for ti, tv := range grid {
				p, _ := alloc.Allocate(all[ti], R)
				var sum float64
				for i, fn := range all[ti] {
					sum += fn.Eval(alloc.FinalBudget(fn, i, p))
				}
				if sum <= 12*tv {
					pivot, tauIdx, found = p, ti, true
					break
				}
			}
			if !found { // cannot happen for tau_max (rho_6tau = 0); be safe
				tauIdx = len(grid) - 1
				pivot, _ = alloc.Allocate(all[tauIdx], R)
			}
			// Replay Step 11 per site: the coordinator knows every
			// t_i(tau-hat) without extra bytes.
			ts = make([]int, s)
			for i, fn := range all[tauIdx] {
				ts[i] = alloc.FinalBudget(fn, i, pivot)
			}
			return nil
		}); err != nil {
			return CenterGResult{}, err
		}
		if err := nw.Broadcast(comm.PivotMsg{
			I0: pivot.I0, Q0: pivot.Q0, L0: pivot.L0,
			Rank: pivot.Rank, Exhausted: pivot.Exhausted, Tau: grid[tauIdx],
		}); err != nil {
			return CenterGResult{}, err
		}

		roundTwo, err := nw.SiteRound()
		if err != nil {
			return CenterGResult{}, err
		}
		for i, b := range roundTwo {
			parts, err := comm.SplitMulti(b)
			if err == nil && len(parts) != 2 {
				err = fmt.Errorf("uncertain: %d parts, want 2", len(parts))
			}
			if err != nil {
				return CenterGResult{}, fmt.Errorf("uncertain: center-g payload from site %d: %w", i, err)
			}
			if err := centerParts[i].UnmarshalBinary(parts[0]); err != nil {
				return CenterGResult{}, fmt.Errorf("uncertain: centers from site %d: %w", i, err)
			}
			if err := outParts[i].UnmarshalBinary(parts[1]); err != nil {
				return CenterGResult{}, fmt.Errorf("uncertain: outliers from site %d: %w", i, err)
			}
		}
		budgets = ts
	}

	// Coordinator: weighted truncated (k,t)-center over the union.
	var result CenterGResult
	if err := nw.Coordinator(func() error {
		cc := &coordTruncCosts{g: g, tau: 6 * grid[tauIdx]}
		var wts []float64
		for i := range centerParts {
			for c, pt := range centerParts[i].Pts {
				cc.addPoint(pt)
				wts = append(wts, centerParts[i].W[c])
			}
			for _, wire := range outParts[i].Nodes {
				nd := Node{Support: make([]int, len(wire.Support)), Prob: wire.Prob}
				for q, u := range wire.Support {
					nd.Support[q] = int(u)
				}
				cc.addNode(nd)
				wts = append(wts, 1)
			}
		}
		sol := kcenter.PartialOpt(cc, wts, cfg.K, float64(cfg.T),
			kcenter.Opt{Workers: cfg.LocalOpts.Workers, Reference: cfg.LocalOpts.Reference})
		result.Centers = make([]metric.Point, len(sol.Centers))
		for i, f := range sol.Centers {
			result.Centers[i] = cc.facPts[f].Clone()
		}
		return nil
	}); err != nil {
		return CenterGResult{}, err
	}

	result.Tau = grid[tauIdx]
	result.TauGrid = grid
	result.Report = nw.Report()
	result.SiteBudgets = budgets
	result.OutlierBudget = (1 + cfg.Eps) * float64(cfg.T)
	return result, nil
}

// facilityCandidates returns the union of the nodes' support indices,
// deterministically thinned to at most max entries.
func facilityCandidates(nodes []Node, max int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, nd := range nodes {
		for _, u := range nd.Support {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	sort.Ints(out)
	if len(out) > max {
		stride := float64(len(out)) / float64(max)
		thin := make([]int, 0, max)
		for i := 0; i < max; i++ {
			thin = append(thin, out[int(float64(i)*stride)])
		}
		out = thin
	}
	return out
}

// coordTruncCosts is the coordinator's mixed instance for center-g:
// clients are either Dirac points (aggregated precluster centers) or full
// outlier nodes; facilities are the client representative points; costs are
// truncated (expected) distances at the chosen threshold.
type coordTruncCosts struct {
	g      *Ground
	tau    float64
	diracs []metric.Point // nil entry means the client is a node
	nodes  []Node
	facPts []metric.Point
}

func (cc *coordTruncCosts) addPoint(p metric.Point) {
	cc.diracs = append(cc.diracs, p)
	cc.nodes = append(cc.nodes, Node{})
	cc.facPts = append(cc.facPts, p)
}

func (cc *coordTruncCosts) addNode(nd Node) {
	cc.diracs = append(cc.diracs, nil)
	cc.nodes = append(cc.nodes, nd)
	// Representative facility: the node's highest-probability support point.
	best, bp := 0, -1.0
	for i, p := range nd.Prob {
		if p > bp {
			bp, best = p, i
		}
	}
	cc.facPts = append(cc.facPts, cc.g.Pts[nd.Support[best]])
}

// Clients implements metric.Costs.
func (cc *coordTruncCosts) Clients() int { return len(cc.diracs) }

// Facilities implements metric.Costs.
func (cc *coordTruncCosts) Facilities() int { return len(cc.facPts) }

// Cost implements metric.Costs.
func (cc *coordTruncCosts) Cost(j, f int) float64 {
	fp := cc.facPts[f]
	if p := cc.diracs[j]; p != nil {
		if d := metric.L2(p, fp) - cc.tau; d > 0 {
			return d
		}
		return 0
	}
	return TruncExpectedDist(cc.g, cc.nodes[j], fp, cc.tau)
}
