package uncertain

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dpc/internal/comm"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// maxTauGrid caps Step 2's truncation grid, whose length a job frame's
// TauBase controls: every threshold costs a site a grid of local solves, and
// at base 2 the cap covers a spread dmax/dmin of 2^1021.
const maxTauGrid = 1024

// tauGrid returns Step 2's truncation grid
// T = {base^i * dmin/18 : 0 <= i <= ceil(log Delta) + 2} over g, or an error
// when base or g admits none. The grid is a deterministic function of the
// shared ground set, so coordinator and sites derive the identical grid
// independently — only the chosen tau-hat crosses the wire (in the pivot
// broadcast). Its length is checked in floats, before a base near 1 can
// overflow an int.
func tauGrid(g *Ground, base float64) ([]float64, error) {
	if !(base > 1) || math.IsInf(base, 1) {
		return nil, fmt.Errorf("uncertain: TauBase = %v is not in (1, inf)", base)
	}
	dmin, dmax := g.MinMax()
	if dmin <= 0 {
		return nil, fmt.Errorf("uncertain: degenerate ground set (dmin=0)")
	}
	steps := math.Ceil(math.Log(dmax/dmin)/math.Log(base)) + 3
	if !(steps <= maxTauGrid) {
		return nil, fmt.Errorf("uncertain: TauBase %v over a spread of %g asks for %g thresholds, above the cap %d", base, dmax/dmin, steps, maxTauGrid)
	}
	grid := make([]float64, int(steps))
	tau := dmin / 18
	for i := range grid {
		grid[i] = tau
		tau *= base
	}
	return grid, nil
}

// cgSite is the site half of Algorithm 4: per truncation threshold, the
// local solves behind that threshold's hull and preclustering.
type cgSite struct {
	cfg     Config // LocalOpts carries the per-site seed
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
	if st.cfg.Variant != OneRoundShipDists {
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

// newCGSite is Algorithm 4's site i over nodes and the shared tau grid.
func newCGSite(g *Ground, nodes []Node, cfg Config, grid []float64, site int) *cgSite {
	cfg.LocalOpts.Seed += int64(site) * 1000033
	return &cgSite{cfg: cfg, g: g, grid: grid, nodes: nodes, fac: facilityCandidates(nodes, cfg.MaxFacilities),
		solvers: make([]*protocol.BudgetSolver, len(grid))}
}

// cgReducer is the coordinator half of Algorithm 4: the sites'
// preclusterings at tau-hat as one mixed instance of Dirac points and
// outlier nodes, solved as a weighted truncated (k,t)-center at 6 tau-hat.
type cgReducer struct {
	g      *Ground
	cfg    Config
	grid   []float64
	sums   []float64         // 1-round: per tau, the costs the sites shipped, summed
	unions []coordTruncCosts // per tau in a 1-round run, tau-hat's alone otherwise
	union  protocol.Union    // admits what every tau's union holds
}

func newCGReducer(g *Ground, cfg Config, grid []float64) (*cgReducer, error) {
	r := &cgReducer{g: g, cfg: cfg, grid: grid, sums: make([]float64, len(grid)), unions: make([]coordTruncCosts, 1)}
	// Solves measure shipped centers against ground points: the admission
	// bound starts at the ground set, which also fixes the dimension.
	if err := r.union.Admit(g.Pts, make([]float64, g.N()), nil); err != nil {
		return nil, fmt.Errorf("uncertain: ground set: %w", err)
	}
	if cfg.Variant == OneRoundShipDists {
		r.unions = make([]coordTruncCosts, len(grid))
	}
	return r, nil
}

// Add implements protocol.Reducer: a Multi of the centers and outliers
// messages, in a 1-round run one pair per tau behind the site's costs at
// every tau.
func (r *cgReducer) Add(b []byte) error {
	parts, err := comm.SplitMulti(b)
	if err != nil {
		return err
	}
	if r.cfg.Variant == OneRoundShipDists && len(parts) > 0 {
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
		if err := r.unions[ti].add(r.g, &r.union, centers, outs); err != nil {
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
	if r.cfg.Variant == OneRoundShipDists {
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
// their attached weights, then its outlier nodes (over g) at weight 1. The
// centers pass u.Admit, and so does each node's representative facility at
// the node's probability mass, which scales its truncated distances; a
// rejected preclustering leaves cc unchanged.
func (cc *coordTruncCosts) add(g *Ground, u *protocol.Union, centers comm.WeightedPointsMsg, outs comm.NodesMsg) error {
	facPts, bound := slices.Clone(centers.Pts), slices.Clone(centers.W)
	nodes := make([]Node, len(centers.Pts), len(centers.Pts)+len(outs.Nodes))
	for _, wire := range outs.Nodes {
		nd, err := nodeFromWire(g, wire)
		if err != nil {
			return err
		}
		nodes = append(nodes, nd)
		// Representative facility: the node's highest-probability support point.
		best, bp, mass := 0, -1.0, 0.0
		for i, p := range nd.Prob {
			if p > bp {
				bp, best = p, i
			}
			mass += p
		}
		facPts = append(facPts, g.Pts[nd.Support[best]])
		bound = append(bound, mass)
	}
	if err := u.Admit(facPts, bound, nil); err != nil {
		return err
	}
	cc.diracs = append(append(cc.diracs, centers.Pts...), make([]metric.Point, len(outs.Nodes))...)
	cc.nodes = append(cc.nodes, nodes...)
	cc.facPts = append(cc.facPts, facPts...)
	cc.wts = append(append(cc.wts, centers.W...), slices.Repeat([]float64{1}, len(outs.Nodes))...)
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
