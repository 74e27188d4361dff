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
	"dpc/internal/protocol"
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
	LocalOpts     kmedian.Options // every solve's options, and the run's one set of engine knobs
	// OneRound runs the Table 2 single-round variant: every site ships,
	// for every tau in the grid, its full (2k, t, rho_6tau) preclustering
	// (centers + outlier distributions + cost) — communication
	// Otilde(s (kB + tI) log Delta) — and the coordinator picks tau-hat
	// from the shipped costs.
	OneRound bool
	// Transport selects the wire backend (loopback in-process by default,
	// tcp for real localhost sockets). Coordinator-local, like Topology.
	Transport transport.Kind `json:"-"`
	// Topology selects the coordinator fan-in (star by default, or an
	// aggregation tree; see internal/tree). Coordinator-local: sites
	// ignore it, and centers are byte-identical across topologies.
	Topology tree.Spec `json:"-"`
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
	c.LocalOpts.Options = c.LocalOpts.Options.Normalize()
	if c.TauBase == 0 {
		c.TauBase = 2
	}
	if c.MaxFacilities == 0 {
		c.MaxFacilities = 256
	}
	return c
}

// CenterGResult is the outcome of Algorithm 4: Tau is the threshold the
// parametric search selected and TauGrid the grid it searched; SiteBudgets
// are the t_i(tau-hat) of that threshold.
type CenterGResult = protocol.Result

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
	cfg     CenterGConfig // LocalOpts carries the per-site seed
	site    int
	g       *Ground
	grid    []float64
	nodes   []Node
	fac     []int                    // candidate facility indices into the ground set
	solvers []*protocol.BudgetSolver // per tau: the (2k, q, rho_6tau)-median solves
	fns     []geom.ConvexFn          // per tau: round 0's hull
}

func newCGSite(g *Ground, nodes []Node, cfg CenterGConfig, grid []float64, site int) *cgSite {
	cfg.LocalOpts.Seed += int64(site) * 1000033
	return &cgSite{
		cfg:     cfg,
		site:    site,
		g:       g,
		grid:    grid,
		nodes:   nodes,
		fac:     facilityCandidates(nodes, cfg.MaxFacilities),
		solvers: make([]*protocol.BudgetSolver, len(grid)),
	}
}

// solver returns the local solves at one truncation grid index. Their
// rho_tau cost oracle is memoized behind a cost cache (unless NoCache, or
// the reference engine that implies it, is selected): the truncated expected distances of Definition 5.7
// are the most expensive oracle in the repository (a support-sized sum per
// call), and the grid of budget solves at a fixed tau re-reads the same
// entries many times.
func (st *cgSite) solver(tauIdx int) *protocol.BudgetSolver {
	if st.solvers[tauIdx] == nil {
		var tc metric.Costs = &TruncCosts{G: st.g, Nodes: st.nodes, Fac: st.fac, Tau: 6 * st.grid[tauIdx]}
		if !st.cfg.LocalOpts.NoCache {
			tc = metric.CacheCosts(tc)
		}
		st.solvers[tauIdx] = &protocol.BudgetSolver{Costs: tc, K: 2 * st.cfg.K, Opts: st.cfg.LocalOpts}
	}
	return st.solvers[tauIdx]
}

// wirePrecluster serializes a local solution: the chosen centers as ground
// points with attached node counts, and the outlier nodes as full
// distributions (the I-bit payload).
func (st *cgSite) wirePrecluster(sol kmedian.Solution) (comm.WeightedPointsMsg, comm.NodesMsg) {
	centers := comm.WeightedPointsMsg{W: sol.CenterWeights()}
	for _, f := range sol.Centers {
		centers.Pts = append(centers.Pts, st.g.Pts[st.fac[f]])
	}
	var outs comm.NodesMsg
	for _, j := range sol.Outliers() {
		outs.Nodes = append(outs.Nodes, nodeWire(st.nodes[j]))
	}
	return centers, outs
}

// handle is Algorithm 4's site side: its own round shape (one hull per
// tau up, tau-hat down with the pivot), so its own round switch.
func (st *cgSite) handle(round int, in []byte) (comm.Payload, error) {
	cfg := st.cfg
	tcap := protocol.CapBudget(cfg.T, len(st.nodes))
	switch {
	case cfg.OneRound && round == 0:
		// Table 2 variant: one round, everything for every tau —
		// Otilde(s (kB + tI) log Delta) communication.
		costs := make([]float64, len(st.grid))
		parts := make([]comm.Payload, 1, 1+2*len(st.grid))
		for ti := range st.grid {
			sol := st.solver(ti).Solve(tcap)
			costs[ti] = sol.Cost
			centers, outs := st.wirePrecluster(sol)
			parts = append(parts, centers, outs)
		}
		parts[0] = comm.Float64sMsg{Vals: costs}
		return comm.Multi{Parts: parts}, nil

	case round == 0:
		// Round 1: per tau, the hull of local truncated costs (Steps 3-5).
		budgetGrid := geom.Grid(tcap, cfg.HullBase)
		msg := comm.HullsMsg{Hulls: make([][]geom.Vertex, len(st.grid))}
		st.fns = make([]geom.ConvexFn, len(st.grid))
		for ti := range st.grid {
			samples := make([]geom.Vertex, len(budgetGrid))
			for i, c := range st.solver(ti).Curve(budgetGrid) {
				samples[i] = geom.Vertex{Q: budgetGrid[i], C: c}
			}
			fn, err := geom.NewConvexFn(samples)
			if err != nil {
				return nil, fmt.Errorf("uncertain: center-g site hull: %w", err)
			}
			st.fns[ti] = fn
			msg.Hulls[ti] = fn.Vertices()
		}
		return msg, nil

	case round == 1 && !cfg.OneRound:
		// Round 2: preclustering at tau-hat; centers as points, outliers
		// as full node distributions (Step 7). Tau-hat arrives in the
		// pivot broadcast; the site locates it on its own grid.
		pivot, tau, err := protocol.DecodePivot(in)
		if err != nil {
			return nil, fmt.Errorf("uncertain: center-g site pivot: %w", err)
		}
		for ti, tv := range st.grid {
			if tv == tau {
				sol := st.solver(ti).Solve(alloc.FinalBudget(st.fns[ti], st.site, pivot))
				centers, outs := st.wirePrecluster(sol)
				return comm.Multi{Parts: []comm.Payload{centers, outs}}, nil
			}
		}
		return nil, fmt.Errorf("uncertain: broadcast tau %g not on the site grid", tau)
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
	if cfg.K <= 0 || cfg.T < 0 {
		return nil, fmt.Errorf("uncertain: bad K=%d T=%d", cfg.K, cfg.T)
	}
	return protocol.SiteHandler(newCGSite(g, nodes, cfg, grid, site).handle), nil
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
	// One grid for everyone: tauGrid costs an O(|ground|^2) min/max scan,
	// so in-process runs must not pay it once per site.
	grid, err := tauGrid(g, cfg.TauBase)
	if err != nil {
		return CenterGResult{}, err
	}
	return protocol.RunLocal(ctx, protocol.Params{Name: "uncertain", T: cfg.T}, cfg.Transport, cfg.Topology, sites,
		func(i int) (transport.Handler, error) { return newCenterGSiteHandler(g, sites[i], cfg, grid, i) },
		func(tr transport.Transport) (CenterGResult, error) { return runCenterGOver(ctx, g, tr, cfg, grid) })
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
	// parts holds, per site, the tau-hat preclustering as it came off the
	// wire: the centers message, then the outlier nodes message.
	parts := make([][][]byte, s)
	var budgets []int

	if cfg.OneRound {
		oneUp, err := nw.SiteRound()
		if err != nil {
			return CenterGResult{}, err
		}
		if err := nw.Coordinator(func() error {
			sums := make([]float64, len(grid))
			for i, b := range oneUp {
				var cm comm.Float64sMsg
				var err error
				if parts[i], err = splitParts(b, 1+2*len(grid)); err == nil {
					err = cm.UnmarshalBinary(parts[i][0])
				}
				if err == nil && len(cm.Vals) != len(grid) {
					err = fmt.Errorf("%d costs, want %d", len(cm.Vals), len(grid))
				}
				if err != nil {
					return fmt.Errorf("uncertain: one-round center-g payload from site %d: %w", i, err)
				}
				for ti, v := range cm.Vals {
					sums[ti] += v
				}
			}
			for ti, tv := range grid {
				if sums[ti] <= 12*tv {
					tauIdx = ti
					break
				}
			}
			for i := range parts {
				parts[i] = parts[i][1+2*tauIdx : 3+2*tauIdx]
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
				pivot, _ = alloc.Allocate(all[tauIdx], R)
			}
			// Replay Step 11 per site: the coordinator knows every
			// t_i(tau-hat) without extra bytes.
			budgets = make([]int, s)
			for i, fn := range all[tauIdx] {
				budgets[i] = alloc.FinalBudget(fn, i, pivot)
			}
			return nil
		}); err != nil {
			return CenterGResult{}, err
		}
		if err := protocol.BroadcastPivot(nw, pivot, grid[tauIdx]); err != nil {
			return CenterGResult{}, err
		}

		roundTwo, err := nw.SiteRound()
		if err != nil {
			return CenterGResult{}, err
		}
		for i, b := range roundTwo {
			if parts[i], err = splitParts(b, 2); err != nil {
				return CenterGResult{}, fmt.Errorf("uncertain: center-g payload from site %d: %w", i, err)
			}
		}
	}

	// Coordinator: weighted truncated (k,t)-center over the union.
	result := CenterGResult{Tau: grid[tauIdx], TauGrid: grid, SiteBudgets: budgets, OutlierBudget: (1 + cfg.Eps) * float64(cfg.T)}
	if err := nw.Coordinator(func() error {
		cc := &coordTruncCosts{g: g, tau: 6 * grid[tauIdx]}
		var wts []float64
		for i, p := range parts {
			var centers comm.WeightedPointsMsg
			var outs comm.NodesMsg
			if err := centers.UnmarshalBinary(p[0]); err != nil {
				return fmt.Errorf("uncertain: centers from site %d: %w", i, err)
			}
			if err := outs.UnmarshalBinary(p[1]); err != nil {
				return fmt.Errorf("uncertain: outliers from site %d: %w", i, err)
			}
			for c, pt := range centers.Pts {
				cc.addPoint(pt)
				wts = append(wts, centers.W[c])
			}
			for _, wire := range outs.Nodes {
				cc.addNode(nodeFromWire(wire))
				wts = append(wts, 1)
			}
		}
		sol := kcenter.PartialOpt(cc, wts, cfg.K, float64(cfg.T), cfg.LocalOpts.Options)
		result.CoordinatorCost = sol.Radius
		for _, f := range sol.Centers {
			result.Centers = append(result.Centers, cc.facPts[f].Clone())
		}
		return nil
	}); err != nil {
		return CenterGResult{}, err
	}
	result.Report = nw.Report()
	return result, nil
}

// splitParts splits a Multi payload and checks its part count.
func splitParts(b []byte, want int) ([][]byte, error) {
	parts, err := comm.SplitMulti(b)
	if err == nil && len(parts) != want {
		err = fmt.Errorf("%d parts, want %d", len(parts), want)
	}
	return parts, err
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
