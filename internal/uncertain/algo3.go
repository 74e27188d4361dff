package uncertain

import (
	"context"
	"fmt"
	"math"

	"dpc/internal/comm"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Objective selects the uncertain clustering objective.
type Objective int

const (
	// Median is uncertain (k,t)-median: sum of expected distances (Eq. 1).
	Median Objective = iota
	// Means is uncertain (k,t)-means: sum of expected squared distances.
	Means
	// CenterPP is uncertain (k,t)-center-pp: max of expected distances
	// (Eq. 2, the per-point objective).
	CenterPP
	// CenterG is uncertain (k,t)-center-g: the expected maximum distance
	// (Eq. 3, the global objective), run by Algorithm 4's parametric search
	// over truncation thresholds, outliers shipped as full distributions.
	CenterG
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Median:
		return "u-median"
	case Means:
		return "u-means"
	case CenterPP:
		return "u-center-pp"
	case CenterG:
		return "u-centerg"
	}
	return fmt.Sprintf("uncertain.Objective(%d)", int(o))
}

// Variant selects the protocol.
type Variant int

const (
	// TwoRound is Algorithm 3 over the Algorithm 1/2 machinery: nodes are
	// collapsed to (y_j, ell_j) and only that compressed form ever crosses
	// the wire — B+8 bytes per shipped node instead of I.
	TwoRound Variant = iota
	// OneRoundShipDists is the naive baseline: one round, t_i = t, and
	// outlier nodes shipped as full distributions (I bits each). Its
	// communication carries the s*t*I term Algorithm 3 removes.
	OneRoundShipDists
)

// Config parameterizes a distributed uncertain run of any objective.
type Config struct {
	K int
	T int

	Variant  Variant
	Eps      float64 // coordinator bicriteria slack (default 1)
	Rho      float64 // allocation rank multiplier (default 2)
	HullBase float64 // budget grid base (default 2)
	// TauBase (center-g only) is the step of the truncation grid
	// {TauBase^i * dmin/18}: default 2, the paper's; coarser grids trade
	// approximation for fewer local solves.
	TauBase float64
	// MaxFacilities (center-g only) caps a site's candidate facilities
	// P(A_i), thinned deterministically (default 256).
	MaxFacilities int
	LocalOpts     kmedian.Options // every solve's options, and the run's one set of engine knobs
	Candidates    CandidateSet    // where 1-medians are searched
	// Transport selects the wire backend: empty or transport.KindLoopback
	// keeps sites in-process; transport.KindTCP runs the identical
	// protocol over real localhost sockets. Coordinator-local, like Topology.
	Transport transport.Kind `json:"-"`
	// Topology selects the coordinator fan-in (star by default, or an
	// aggregation tree; see internal/tree). Coordinator-local: sites
	// ignore it, and centers are byte-identical across topologies.
	Topology tree.Spec `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 1
	}
	c.LocalOpts.Options = c.LocalOpts.Options.Normalize()
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

// check rejects what no run of obj can use and returns, for CenterG, Step
// 2's truncation grid over g (nil for every other objective); c must
// already have defaults applied. Both halves call it, so a site rejects a
// shipped configuration before any value reaches a solver or a grid.
func (c Config) check(g *Ground, obj Objective) ([]float64, error) {
	if obj < Median || obj > CenterG {
		return nil, fmt.Errorf("uncertain: unknown objective %d", int(obj))
	}
	if c.Variant != TwoRound && c.Variant != OneRoundShipDists {
		return nil, fmt.Errorf("uncertain: unknown variant %d", int(c.Variant))
	}
	if c.K <= 0 || c.T < 0 {
		return nil, fmt.Errorf("uncertain: bad K=%d T=%d", c.K, c.T)
	}
	for i, v := range []float64{c.Eps, c.Rho, c.HullBase} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("uncertain: %s = %v is not finite", [...]string{"Eps", "Rho", "HullBase"}[i], v)
		}
	}
	if c.Eps < 0 || math.IsInf((1+c.Eps)*float64(c.T), 0) {
		return nil, fmt.Errorf("uncertain: Eps = %v: want Eps >= 0 and a finite (1+Eps)T (T = %d)", c.Eps, c.T)
	}
	if obj != CenterG {
		return nil, nil
	}
	if c.MaxFacilities < 0 {
		return nil, fmt.Errorf("uncertain: MaxFacilities = %d", c.MaxFacilities)
	}
	return tauGrid(g, c.TauBase)
}

// params is the part of the (defaults-applied) configuration the shared
// round skeleton reads: Algorithm 1's, and for center-g the tau grid.
func (c Config) params(grid []float64) protocol.Params {
	return protocol.Params{Name: "uncertain", T: c.T, Rho: c.Rho, HullBase: c.HullBase, OneRound: c.Variant == OneRoundShipDists, TauGrid: grid}
}

// Result of a distributed uncertain run.
type Result = protocol.Result

// uSite is the site half of Algorithm 3: Algorithm 1 (median/means) or
// Algorithm 2 (center-pp) over the site's nodes collapsed to (y_j, ell_j).
type uSite struct {
	protocol.BudgetSolver // the (2k, q)-median solves over the collapsed nodes
	cfg                   Config
	obj                   Objective
	g                     *Ground
	nodes                 []Node
	col                   *Collapsed
	space                 metric.Space // col behind the memoized distance cache (CenterPP only)
	trav                  kcenter.Traversal
	started               bool
}

func newUSite(g *Ground, nodes []Node, cfg Config, obj Objective, site int) *uSite {
	opts := cfg.LocalOpts
	opts.Seed += int64(site) * 999983
	return &uSite{
		BudgetSolver: protocol.BudgetSolver{K: 2 * cfg.K, Opts: opts},
		cfg:          cfg,
		obj:          obj,
		g:            g,
		nodes:        nodes,
	}
}

// start collapses the site's nodes lazily on the first round, so the cost
// is attributed to site compute time on whatever transport is in use.
func (st *uSite) start() {
	if st.started {
		return
	}
	st.started = true
	st.col = Collapse(st.g, st.nodes, st.obj == Means, st.cfg.Candidates)
	st.Costs = metric.CacheCosts(st.col)
	if st.obj == CenterPP {
		st.space = metric.CacheSpace(st.col)
		st.trav = kcenter.GonzalezOpt(st.space, st.cfg.K+st.cfg.T, 0, st.Opts.Options)
	}
}

// Len implements protocol.Site.
func (st *uSite) Len() int { return len(st.nodes) }

// Curve implements protocol.Site: Algorithm 1's grid of local solves, or
// Algorithm 2's slope suffix sums for center-pp.
func (st *uSite) Curve(_ int, grid []int) []float64 {
	st.start()
	if st.obj == CenterPP {
		return st.trav.SlopeSuffix(st.cfg.K, grid)
	}
	return st.BudgetSolver.Curve(grid)
}

// Precluster implements protocol.Site. Centers ship as (y, 0, weight) and
// outliers as (y_j, ell_j, 1) — Algorithm 3's "whenever the site has to
// communicate p_j, it also sends y_j and E[d(sigma(j), y_j)]". The naive
// 1-round baseline ships outliers as full distributions instead. Center-pp
// ships the first k+t_i traversal collapse points with attached counts (the
// Algorithm 2 preclustering over collapsed nodes) under either variant.
func (st *uSite) Precluster(b protocol.Budget) comm.Payload {
	st.start()
	if st.obj == CenterPP {
		m := st.cfg.K + b.T
		if m > len(st.trav.Order) {
			m = len(st.trav.Order)
		}
		_, counts, _ := st.trav.AssignPrefixOpt(st.space, m, nil, st.Opts.Options)
		return comm.CollapsedMsg{Y: protocol.PointsAt(st.col.Y, st.trav.Order[:m]), Ell: make([]float64, m), W: counts}
	}
	sol := st.Solve(b.T)
	msg := comm.CollapsedMsg{
		Y:   protocol.PointsAt(st.col.Y, sol.Centers),
		Ell: make([]float64, len(sol.Centers)),
		W:   sol.CenterWeights(),
	}
	if st.cfg.Variant == OneRoundShipDists {
		var outs comm.NodesMsg
		for _, j := range sol.Outliers() {
			outs.Nodes = append(outs.Nodes, nodeWire(st.nodes[j]))
		}
		return comm.Multi{Parts: []comm.Payload{msg, outs}}
	}
	for _, j := range sol.Outliers() {
		msg.Y = append(msg.Y, st.col.Y[j])
		msg.Ell = append(msg.Ell, st.col.Ell[j])
		msg.W = append(msg.W, 1)
	}
	return msg
}

// nodeWire converts a node to its wire form (a full distribution, the
// I-bit payload).
func nodeWire(nd Node) comm.NodeWire {
	w := comm.NodeWire{Support: make([]uint32, len(nd.Support)), Prob: append([]float64(nil), nd.Prob...)}
	for i, u := range nd.Support {
		w.Support[i] = uint32(u)
	}
	return w
}

// nodeFromWire is nodeWire's inverse on the coordinator, which indexes the
// shipped node into its ground set g: an empty support, an index outside g
// or a probability that is not finite and positive is an error. (The sum of
// the probabilities is not checked: Node.Validate's tolerance is not known to
// hold for every honest node.)
func nodeFromWire(g *Ground, w comm.NodeWire) (Node, error) {
	if len(w.Support) == 0 {
		return Node{}, fmt.Errorf("outlier node has an empty support")
	}
	nd := Node{Support: make([]int, len(w.Support)), Prob: w.Prob}
	for i, u := range w.Support {
		if uint64(u) >= uint64(g.N()) {
			return Node{}, fmt.Errorf("outlier node support index %d outside the ground set of %d points", u, g.N())
		}
		if p := w.Prob[i]; !(p > 0) || math.IsInf(p, 1) {
			return Node{}, fmt.Errorf("outlier node probability %v is not finite and positive", p)
		}
		nd.Support[i] = int(u)
	}
	return nd, nil
}

// Run executes the distributed uncertain protocol for obj — Algorithm 3
// around Algorithm 1 (median/means) or 2 (center-pp), or Algorithm 4 for
// CenterG — with sites in-process over the backend cfg.Transport selects.
func Run(g *Ground, sites [][]Node, cfg Config, obj Objective) (Result, error) {
	return RunCtx(context.Background(), g, sites, cfg, obj)
}

// RunCtx is Run under a context: cancellation aborts the protocol between
// site computations and returns ctx.Err() promptly.
func RunCtx(ctx context.Context, g *Ground, sites [][]Node, cfg Config, obj Objective) (Result, error) {
	cfg = cfg.withDefaults()
	// One grid for everyone: check costs center-g an O(|ground|^2) min/max
	// scan, so in-process runs must not pay it once per site.
	grid, err := cfg.check(g, obj)
	if err != nil {
		return Result{}, err
	}
	// Preemption reaches inside the solves behind the sites' instances,
	// not just between protocol rounds.
	cfg.LocalOpts.Ctx = ctx
	return protocol.RunLocal(ctx, cfg.params(grid), cfg.Transport, cfg.Topology, sites,
		func(i int) (transport.Handler, error) { return newSiteHandler(g, sites[i], cfg, obj, grid, i) },
		func(tr transport.Transport) (Result, error) { return runOver(ctx, g, tr, cfg, obj, grid) })
}

// NewSiteHandler builds the site half of the uncertain protocol for site i
// holding nodes over the shared ground set g. For CenterG it derives the tau
// grid from g (a genuinely remote site must compute it itself).
func NewSiteHandler(g *Ground, nodes []Node, cfg Config, obj Objective, site int) (transport.Handler, error) {
	cfg = cfg.withDefaults()
	grid, err := cfg.check(g, obj)
	if err != nil {
		return nil, err
	}
	return newSiteHandler(g, nodes, cfg, obj, grid, site)
}

// newSiteHandler is NewSiteHandler once cfg has its defaults and check has
// returned its grid.
func newSiteHandler(g *Ground, nodes []Node, cfg Config, obj Objective, grid []float64, site int) (transport.Handler, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("uncertain: site %d empty", site)
	}
	var st protocol.Site = newUSite(g, nodes, cfg, obj, site)
	if obj == CenterG {
		st = newCGSite(g, nodes, cfg, grid, site)
	}
	return protocol.Handler(cfg.params(grid), site, st), nil
}

// RunOverCtx executes the coordinator side of the uncertain protocol over
// an already-connected transport (sites served elsewhere via NewSiteHandler
// with the identical config, objective and ground set g — in the paper's
// model the ground metric is shared knowledge). Cancelling ctx aborts the
// round loop and the coordinator solve promptly with ctx.Err().
func RunOverCtx(ctx context.Context, g *Ground, tr transport.Transport, cfg Config, obj Objective) (Result, error) {
	cfg = cfg.withDefaults()
	grid, err := cfg.check(g, obj)
	if err != nil {
		return Result{}, err
	}
	cfg.LocalOpts.Ctx = ctx
	return runOver(ctx, g, tr, cfg, obj, grid)
}

// runOver is RunOverCtx once cfg has its defaults and ctx and check has
// returned its grid.
func runOver(ctx context.Context, g *Ground, tr transport.Transport, cfg Config, obj Objective, grid []float64) (Result, error) {
	var red protocol.Reducer = newReducer(g, cfg, obj)
	var err error
	if obj == CenterG {
		if red, err = newCGReducer(g, cfg, grid); err != nil {
			return Result{}, err
		}
	}
	res, err := protocol.Run(ctx, tr, cfg.params(grid), red)
	if err != nil {
		return Result{}, err
	}
	res.OutlierBudget = (1 + cfg.Eps) * float64(cfg.T)
	return res, nil
}

// reducer is the coordinator half of Algorithm 3: the union of the sites'
// collapsed preclusterings, solved as in Algorithm 1 (median/means) or
// Algorithm 2 (center-pp).
type reducer struct {
	g     *Ground
	cfg   Config
	obj   Objective
	col   Collapsed
	wts   []float64
	union protocol.Union
}

// newReducer is the coordinator half of objective obj over the ground set
// g, whose dimension every collapsed node must have.
func newReducer(g *Ground, cfg Config, obj Objective) *reducer {
	r := &reducer{g: g, cfg: cfg, obj: obj, col: Collapsed{Squared: obj == Means}, union: protocol.Union{Squared: obj == Means}}
	if g.N() > 0 {
		r.union.Dim = len(g.Pts[0])
	}
	return r
}

// Add implements protocol.Reducer. Under the naive variant the outlier
// nodes of a median/means site arrive as full distributions and are
// collapsed here, over the shared ground set.
func (r *reducer) Add(b []byte) error {
	var outs comm.NodesMsg
	if r.cfg.Variant == OneRoundShipDists && r.obj != CenterPP {
		parts, err := comm.SplitMulti(b)
		if err == nil && len(parts) != 2 {
			err = fmt.Errorf("malformed naive payload (%d parts)", len(parts))
		}
		if err == nil {
			b, err = parts[0], outs.UnmarshalBinary(parts[1])
		}
		if err != nil {
			return err
		}
	}
	var msg comm.CollapsedMsg
	if err := msg.UnmarshalBinary(b); err != nil {
		return err
	}
	for _, wire := range outs.Nodes {
		nd, err := nodeFromWire(r.g, wire)
		if err != nil {
			return err
		}
		one := OneMedian
		if r.col.Squared {
			one = OneMean
		}
		yi, li := one(r.g, nd, r.cfg.Candidates)
		if yi < 0 {
			// Every candidate's expected distance overflowed (a huge probability).
			return fmt.Errorf("outlier node has no finite 1-median")
		}
		msg.Y = append(msg.Y, r.g.Pts[yi])
		msg.Ell = append(msg.Ell, li)
		msg.W = append(msg.W, 1)
	}
	if err := r.union.Admit(msg.Y, msg.W, msg.Ell); err != nil {
		return err
	}
	r.col.Y = append(r.col.Y, msg.Y...)
	r.col.Ell = append(r.col.Ell, msg.Ell...)
	r.wts = append(r.wts, msg.W...)
	return nil
}

// Solve implements protocol.Reducer.
func (r *reducer) Solve(res *Result) {
	cfg := r.cfg
	res.CoordinatorClients = r.col.Len()
	if r.obj == CenterPP {
		sol := kcenter.PartialOpt(&r.col, r.wts, cfg.K, float64(cfg.T), cfg.LocalOpts.Options)
		res.Centers, res.CoordinatorCost = protocol.PointsAt(r.col.Y, sol.Centers), sol.Radius
		return
	}
	copt := cfg.LocalOpts
	copt.Seed += 555557
	sol := kmedian.Bicriteria(metric.CacheCosts(&r.col), r.wts, cfg.K, float64(cfg.T), cfg.Eps, kmedian.RelaxOutliers, copt)
	res.Centers, res.CoordinatorCost = protocol.PointsAt(r.col.Y, sol.Centers), sol.Cost
}
