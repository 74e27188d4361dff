package uncertain

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dpc/internal/comm"
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

// common is the part of c Algorithm 3's configuration also has: the two
// share its defaults and its validation.
func (c CenterGConfig) common() Config {
	return Config{K: c.K, T: c.T, Eps: c.Eps, Rho: c.Rho, HullBase: c.HullBase, LocalOpts: c.LocalOpts}
}

func (c CenterGConfig) withDefaults() CenterGConfig {
	d := c.common().withDefaults()
	c.Eps, c.Rho, c.HullBase, c.LocalOpts = d.Eps, d.Rho, d.HullBase, d.LocalOpts
	if c.TauBase == 0 {
		c.TauBase = 2
	}
	if c.MaxFacilities == 0 {
		c.MaxFacilities = 256
	}
	return c
}

// params is the part of the (defaults-applied) configuration the shared
// round skeleton reads: Algorithm 1's, and the tau grid.
func (c CenterGConfig) params(grid []float64) protocol.Params {
	return protocol.Params{Name: "uncertain", T: c.T, Rho: c.Rho, HullBase: c.HullBase, OneRound: c.OneRound, TauGrid: grid}
}

// CenterGResult is the outcome of Algorithm 4: Tau is the threshold the
// parametric search selected and TauGrid the grid it searched; SiteBudgets
// are the t_i(tau-hat) of that threshold.
type CenterGResult = protocol.Result

// maxTauGrid caps Step 2's truncation grid, whose length a job frame's
// TauBase controls: every threshold costs a site a grid of local solves, and
// at base 2 the cap covers a spread dmax/dmin of 2^1021.
const maxTauGrid = 1024

// validate rejects what no run can use and returns Step 2's truncation
// grid T = {TauBase^i * dmin/18 : 0 <= i <= ceil(log Delta) + 2} over g; c
// must already have defaults applied. Both halves call it, so a site rejects
// a shipped configuration before any value reaches a solver or a grid. The
// grid is a deterministic function of the shared ground set, so coordinator
// and sites derive the identical grid independently — only the chosen
// tau-hat crosses the wire (in the pivot broadcast). Its length is checked
// in floats, before a TauBase near 1 can overflow an int.
func (c CenterGConfig) validate(g *Ground) ([]float64, error) {
	if err := c.common().validate(); err != nil {
		return nil, err
	}
	if !(c.TauBase > 1) || math.IsInf(c.TauBase, 1) {
		return nil, fmt.Errorf("uncertain: TauBase = %v is not in (1, inf)", c.TauBase)
	}
	if c.MaxFacilities < 0 {
		return nil, fmt.Errorf("uncertain: MaxFacilities = %d", c.MaxFacilities)
	}
	dmin, dmax := g.MinMax()
	if dmin <= 0 {
		return nil, fmt.Errorf("uncertain: degenerate ground set (dmin=0)")
	}
	steps := math.Ceil(math.Log(dmax/dmin)/math.Log(c.TauBase)) + 3
	if !(steps <= maxTauGrid) {
		return nil, fmt.Errorf("uncertain: TauBase %v over a spread of %g asks for %g thresholds, above the cap %d", c.TauBase, dmax/dmin, steps, maxTauGrid)
	}
	grid := make([]float64, int(steps))
	tau := dmin / 18
	for i := range grid {
		grid[i] = tau
		tau *= c.TauBase
	}
	return grid, nil
}

// cgSite is the site half of Algorithm 4: per truncation threshold, the
// local solves behind that threshold's hull and preclustering.
type cgSite struct {
	cfg     CenterGConfig // LocalOpts carries the per-site seed
	g       *Ground
	grid    []float64
	nodes   []Node
	fac     []int                    // candidate facility indices into the ground set
	solvers []*protocol.BudgetSolver // per tau: the (2k, q, rho_6tau)-median solves
}

// solver returns the local solves at one truncation grid index. Their
// rho_tau cost oracle is memoized behind a cost cache (metric.CacheCosts):
// the truncated expected distances of Definition 5.7 are the most expensive
// oracle in the repository (a support-sized sum per call), and the grid of
// budget solves at a fixed tau re-reads the same entries many times.
func (st *cgSite) solver(tauIdx int) *protocol.BudgetSolver {
	if st.solvers[tauIdx] == nil {
		tc := metric.CacheCosts(&TruncCosts{G: st.g, Nodes: st.nodes, Fac: st.fac, Tau: 6 * st.grid[tauIdx]})
		st.solvers[tauIdx] = &protocol.BudgetSolver{Costs: tc, K: 2 * st.cfg.K, Opts: st.cfg.LocalOpts}
	}
	return st.solvers[tauIdx]
}

// wirePrecluster serializes a local solution: the chosen centers as ground
// points with attached node counts, then the outlier nodes as full
// distributions (the I-bit payload).
func (st *cgSite) wirePrecluster(sol kmedian.Solution) []comm.Payload {
	centers := comm.WeightedPointsMsg{W: sol.CenterWeights()}
	for _, f := range sol.Centers {
		centers.Pts = append(centers.Pts, st.g.Pts[st.fac[f]])
	}
	var outs comm.NodesMsg
	for _, j := range sol.Outliers() {
		outs.Nodes = append(outs.Nodes, nodeWire(st.nodes[j]))
	}
	return []comm.Payload{centers, outs}
}

// Len implements protocol.Site.
func (st *cgSite) Len() int { return len(st.nodes) }

// Curve implements protocol.Site: the local truncated costs at the tau-th
// threshold (Steps 3-5).
func (st *cgSite) Curve(tau int, grid []int) []float64 { return st.solver(tau).Curve(grid) }

// Precluster implements protocol.Site: the preclustering at tau-hat,
// centers as points and outliers as full node distributions (Step 7). The
// Table 2 1-round variant ships everything for every tau instead — the
// costs the coordinator picks tau-hat from, then each tau's preclustering:
// Otilde(s (kB + tI) log Delta) communication.
func (st *cgSite) Precluster(b protocol.Budget) comm.Payload {
	if !st.cfg.OneRound {
		return comm.Multi{Parts: st.wirePrecluster(st.solver(b.Param).Solve(b.T))}
	}
	costs := make([]float64, len(st.grid))
	parts := []comm.Payload{comm.Float64sMsg{Vals: costs}} // costs filled below
	for ti := range st.grid {
		sol := st.solver(ti).Solve(b.T)
		costs[ti] = sol.Cost
		parts = append(parts, st.wirePrecluster(sol)...)
	}
	return comm.Multi{Parts: parts}
}

// NewCenterGSiteHandler builds the site half of Algorithm 4 for site i,
// deriving the tau grid from the shared ground set (a genuinely remote
// site must compute it itself; in-process runs share one grid instead).
func NewCenterGSiteHandler(g *Ground, nodes []Node, cfg CenterGConfig, site int) (transport.Handler, error) {
	cfg = cfg.withDefaults()
	grid, err := cfg.validate(g)
	if err != nil {
		return nil, err
	}
	return newCenterGSiteHandler(g, nodes, cfg, grid, site)
}

func newCenterGSiteHandler(g *Ground, nodes []Node, cfg CenterGConfig, grid []float64, site int) (transport.Handler, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("uncertain: site %d empty", site)
	}
	st := &cgSite{cfg: cfg, g: g, grid: grid, nodes: nodes, fac: facilityCandidates(nodes, cfg.MaxFacilities),
		solvers: make([]*protocol.BudgetSolver, len(grid))}
	st.cfg.LocalOpts.Seed += int64(site) * 1000033
	return protocol.Handler(cfg.params(grid), site, st), nil
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
	grid, err := cfg.validate(g)
	if err != nil {
		return CenterGResult{}, err
	}
	// The truncated-oracle solves inherit ctx: a cancelled run stops
	// mid-solve, not just at the next gather.
	cfg.LocalOpts.Ctx = ctx
	// One grid for everyone: validate costs an O(|ground|^2) min/max scan,
	// so in-process runs must not pay it once per site.
	return protocol.RunLocal(ctx, cfg.params(grid), cfg.Transport, cfg.Topology, sites,
		func(i int) (transport.Handler, error) { return newCenterGSiteHandler(g, sites[i], cfg, grid, i) },
		func(tr transport.Transport) (CenterGResult, error) { return centerGOver(ctx, g, tr, cfg, grid) })
}

// RunCenterGOverCtx executes the coordinator side of Algorithm 4 over an
// already-connected transport; cancelling ctx aborts the round loop and the
// coordinator solves promptly with ctx.Err().
func RunCenterGOverCtx(ctx context.Context, g *Ground, tr transport.Transport, cfg CenterGConfig) (CenterGResult, error) {
	cfg = cfg.withDefaults()
	grid, err := cfg.validate(g)
	if err != nil {
		return CenterGResult{}, err
	}
	cfg.LocalOpts.Ctx = ctx
	return centerGOver(ctx, g, tr, cfg, grid)
}

// centerGOver is RunCenterGOverCtx once cfg has its defaults and ctx
// and validate has returned its grid.
func centerGOver(ctx context.Context, g *Ground, tr transport.Transport, cfg CenterGConfig, grid []float64) (CenterGResult, error) {
	res, err := protocol.Run(ctx, tr, cfg.params(grid), newCGReducer(g, cfg, grid))
	if err != nil {
		return CenterGResult{}, err
	}
	res.OutlierBudget = (1 + cfg.Eps) * float64(cfg.T)
	return res, nil
}

// cgReducer is the coordinator half of Algorithm 4: the sites'
// preclusterings at tau-hat as one mixed instance of Dirac points and
// outlier nodes, solved as a weighted truncated (k,t)-center at 6 tau-hat.
type cgReducer struct {
	g      *Ground
	cfg    CenterGConfig
	grid   []float64
	sums   []float64         // 1-round: per tau, the costs the sites shipped, summed
	unions []coordTruncCosts // per tau in a 1-round run, tau-hat's alone otherwise
}

func newCGReducer(g *Ground, cfg CenterGConfig, grid []float64) *cgReducer {
	r := &cgReducer{g: g, cfg: cfg, grid: grid, sums: make([]float64, len(grid)), unions: make([]coordTruncCosts, 1)}
	if cfg.OneRound {
		r.unions = make([]coordTruncCosts, len(grid))
	}
	return r
}

// Add implements protocol.Reducer: a Multi of the centers and outliers
// messages, in a 1-round run one pair per tau behind the site's costs at
// every tau.
func (r *cgReducer) Add(b []byte) error {
	parts, err := comm.SplitMulti(b)
	if err != nil {
		return err
	}
	if r.cfg.OneRound && len(parts) > 0 {
		var cm comm.Float64sMsg
		if err := cm.UnmarshalBinary(parts[0]); err != nil {
			return err
		}
		if len(cm.Vals) != len(r.grid) {
			return fmt.Errorf("%d costs, want %d", len(cm.Vals), len(r.grid))
		}
		for ti, v := range cm.Vals {
			r.sums[ti] += v
		}
		parts = parts[1:]
	}
	if len(parts) != 2*len(r.unions) {
		return fmt.Errorf("%d preclustering parts, want %d", len(parts), 2*len(r.unions))
	}
	for ti := range r.unions {
		var centers comm.WeightedPointsMsg
		var outs comm.NodesMsg
		if err := centers.UnmarshalBinary(parts[2*ti]); err != nil {
			return fmt.Errorf("centers: %w", err)
		}
		if err := outs.UnmarshalBinary(parts[2*ti+1]); err != nil {
			return fmt.Errorf("outliers: %w", err)
		}
		if err := r.unions[ti].add(r.g, centers, outs); err != nil {
			return err
		}
	}
	return nil
}

// Solve implements protocol.Reducer: in a 1-round run, Step 6 over the
// shipped costs picks tau-hat; then the weighted truncated (k,t)-center over
// the union at 6 tau-hat.
func (r *cgReducer) Solve(res *protocol.Result) {
	ti := 0
	if r.cfg.OneRound {
		ti = protocol.PickTau(r.grid, func(i int) float64 { return r.sums[i] })
		res.Tau = r.grid[ti]
	}
	cc := &r.unions[ti]
	cc.g, cc.tau = r.g, 6*res.Tau
	sol := kcenter.PartialOpt(cc, cc.wts, r.cfg.K, float64(r.cfg.T), r.cfg.LocalOpts.Options)
	res.Centers, res.CoordinatorCost = protocol.PointsAt(cc.facPts, sol.Centers), sol.Radius
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
	wts    []float64 // client weights
}

// add appends one site's preclustering: its centers as Dirac clients at
// their attached weights, then its outlier nodes (over g) at weight 1.
func (cc *coordTruncCosts) add(g *Ground, centers comm.WeightedPointsMsg, outs comm.NodesMsg) error {
	cc.diracs = append(cc.diracs, centers.Pts...)
	cc.nodes = append(cc.nodes, make([]Node, len(centers.Pts))...)
	cc.facPts = append(cc.facPts, centers.Pts...)
	cc.wts = append(cc.wts, centers.W...)
	for _, wire := range outs.Nodes {
		nd, err := nodeFromWire(g, wire)
		if err != nil {
			return err
		}
		cc.diracs = append(cc.diracs, nil)
		cc.nodes = append(cc.nodes, nd)
		// Representative facility: the node's highest-probability support point.
		best, bp := 0, -1.0
		for i, p := range nd.Prob {
			if p > bp {
				bp, best = p, i
			}
		}
		cc.facPts = append(cc.facPts, g.Pts[nd.Support[best]])
		cc.wts = append(cc.wts, 1)
	}
	return nil
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
