package uncertain

import (
	"context"
	"fmt"

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

// Config parameterizes a distributed uncertain run.
type Config struct {
	K int
	T int

	Variant    Variant
	Eps        float64 // coordinator bicriteria slack (default 1)
	Rho        float64 // allocation rank multiplier (default 2)
	HullBase   float64 // budget grid base (default 2)
	Engine     kmedian.Engine
	LocalOpts  kmedian.Options // its NoCache / Reference knobs turn the memoized oracles off
	Candidates CandidateSet    // where 1-medians are searched
	Sequential bool
	// Transport selects the wire backend: empty or transport.KindLoopback
	// keeps sites in-process; transport.KindTCP runs the identical
	// protocol over real localhost sockets.
	Transport transport.Kind
	// Topology selects the coordinator fan-in (star by default, or an
	// aggregation tree; see internal/tree). Coordinator-local: sites
	// ignore it, and centers are byte-identical across topologies.
	Topology tree.Spec `json:"topology,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 1
	}
	if c.Rho == 0 {
		c.Rho = 2
	}
	if c.HullBase == 0 {
		c.HullBase = 2
	}
	return c
}

// Result of a distributed uncertain run.
type Result struct {
	// Centers are the chosen centers as ground-space points.
	Centers []metric.Point
	// Report is the measured communication/time footprint.
	Report comm.Report
	// SiteBudgets are the allocated per-site outlier budgets (nil for
	// 1-round runs, where every t_i = t).
	SiteBudgets []int
	// CoordinatorClients is the size of the coordinator's induced instance.
	CoordinatorClients int
	// OutlierBudget is the global ignore entitlement ((1+eps)t).
	OutlierBudget float64
}

// uSite is the site half of Algorithm 3 (wrapped around Algorithm 1 for
// median/means, Algorithm 2 for center-pp): per-site state driven by round
// number and wire bytes, like core's site handlers.
type uSite struct {
	cfg     Config
	obj     Objective
	site    int
	g       *Ground
	nodes   []Node
	col     *Collapsed
	costs   metric.Costs // col behind the memoized cost cache (unless Reference)
	space   metric.Space // col behind the memoized distance cache (CenterPP only)
	trav    kcenter.Traversal
	fn      geom.ConvexFn
	sols    map[int]kmedian.Solution
	opts    kmedian.Options
	budget  int
	started bool
}

func newUSite(g *Ground, nodes []Node, cfg Config, obj Objective, site int) *uSite {
	opts := cfg.LocalOpts
	opts.Seed += int64(site) * 999983
	return &uSite{
		cfg:   cfg,
		obj:   obj,
		site:  site,
		g:     g,
		nodes: nodes,
		opts:  opts,
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
	st.costs = st.col
	cache := !st.opts.Reference && !st.opts.NoCache
	if cache {
		st.costs = metric.CacheCosts(st.col)
	}
	st.sols = make(map[int]kmedian.Solution)
	if st.obj == CenterPP {
		st.space = st.col
		if cache {
			st.space = metric.CacheSpace(st.space)
			// The pivot index layers over the (possibly cached) collapsed
			// space; the greedy covers below prune through it.
			st.space = metric.IndexSpace(st.space, st.opts.Index, st.opts.Pivots)
		}
		st.trav = kcenter.GonzalezOpt(st.space, st.cfg.K+st.cfg.T, 0, st.kcOpt())
	}
}

// kcOpt translates the site's solver options for the kcenter engines.
func (st *uSite) kcOpt() kcenter.Opt {
	return st.opts.Options
}

// handle implements transport.Handler for the uncertain site side.
func (st *uSite) handle(round int, in []byte) ([]byte, error) {
	st.start()
	if st.obj == CenterPP {
		return st.handleCenterPP(round, in)
	}
	return st.handleMedianMeans(round, in)
}

func (st *uSite) handleMedianMeans(round int, in []byte) ([]byte, error) {
	cfg := st.cfg
	k2 := 2 * cfg.K
	switch {
	case cfg.Variant == OneRoundShipDists && round == 0:
		st.budget = capBudget(cfg.T, len(st.nodes))
		return comm.Encode(st.nodesPayload(st.solve(k2, st.budget, cfg.Engine)))

	case round == 0:
		samples := make([]geom.Vertex, 0, 8)
		var warm []int
		for _, q := range geom.Grid(capBudget(cfg.T, len(st.nodes)), cfg.HullBase) {
			st.opts.Warm = warm
			sol := st.solve(k2, q, cfg.Engine)
			warm = sol.Centers
			samples = append(samples, geom.Vertex{Q: q, C: sol.Cost})
		}
		st.opts.Warm = nil
		fn, err := geom.NewConvexFn(samples)
		if err != nil {
			return nil, fmt.Errorf("uncertain: site hull: %w", err)
		}
		st.fn = fn
		return comm.Encode(comm.HullMsg{V: fn.Vertices()})

	case round == 1 && cfg.Variant != OneRoundShipDists:
		ti, err := st.budgetFromPivot(in)
		if err != nil {
			return nil, err
		}
		st.budget = ti
		return comm.Encode(st.collapsedPayload(st.solve(k2, ti, cfg.Engine)))
	}
	return nil, fmt.Errorf("uncertain: site has no round %d for variant %v", round, cfg.Variant)
}

func (st *uSite) handleCenterPP(round int, in []byte) ([]byte, error) {
	cfg := st.cfg
	switch {
	case cfg.Variant == OneRoundShipDists && round == 0:
		st.budget = cfg.T
		return comm.Encode(st.centerPayload())

	case round == 0:
		tcap := capBudget(cfg.T, len(st.nodes))
		suffix := make([]float64, tcap+2)
		for q := tcap; q >= 1; q-- {
			slope := 0.0
			if idx := cfg.K + q - 1; idx < len(st.trav.Order) {
				slope = st.trav.Radii[idx]
			}
			suffix[q] = suffix[q+1] + slope
		}
		samples := make([]geom.Vertex, 0, 8)
		for _, q := range geom.Grid(tcap, cfg.HullBase) {
			samples = append(samples, geom.Vertex{Q: q, C: suffix[q+1]})
		}
		fn, err := geom.NewConvexFn(samples)
		if err != nil {
			return nil, fmt.Errorf("uncertain: center-pp site hull: %w", err)
		}
		st.fn = fn
		return comm.Encode(comm.HullMsg{V: fn.Vertices()})

	case round == 1 && cfg.Variant != OneRoundShipDists:
		ti, err := st.budgetFromPivot(in)
		if err != nil {
			return nil, err
		}
		st.budget = ti
		return comm.Encode(st.centerPayload())
	}
	return nil, fmt.Errorf("uncertain: center-pp site has no round %d for variant %v", round, cfg.Variant)
}

// budgetFromPivot decodes the broadcast pivot and replays Step 11 for this
// site's hull.
func (st *uSite) budgetFromPivot(in []byte) (int, error) {
	var pm comm.PivotMsg
	if err := pm.UnmarshalBinary(in); err != nil {
		return 0, fmt.Errorf("uncertain: site pivot: %w", err)
	}
	pivot := alloc.Pivot{I0: pm.I0, Q0: pm.Q0, L0: pm.L0, Rank: pm.Rank, Exhausted: pm.Exhausted}
	return alloc.FinalBudget(st.fn, st.site, pivot), nil
}

func (st *uSite) solve(k2, q int, engine kmedian.Engine) kmedian.Solution {
	if sol, ok := st.sols[q]; ok {
		return sol
	}
	sol := kmedian.Solve(st.costs, nil, k2, float64(q), engine, st.opts)
	st.sols[q] = sol
	return sol
}

// collapsedPayload ships centers as (y, 0, weight) and outliers as
// (y_j, ell_j, 1) — Algorithm 3's "whenever the site has to communicate
// p_j, it also sends y_j and E[d(sigma(j), y_j)]".
func (st *uSite) collapsedPayload(sol kmedian.Solution) comm.Payload {
	var msg comm.CollapsedMsg
	idx := make(map[int]int, len(sol.Centers))
	for _, f := range sol.Centers {
		idx[f] = len(msg.Y)
		msg.Y = append(msg.Y, st.col.Y[f])
		msg.Ell = append(msg.Ell, 0)
		msg.W = append(msg.W, 0)
	}
	for j, f := range sol.Assign {
		if f < 0 {
			continue
		}
		if inW := 1 - sol.DroppedWeight[j]; inW > 0 {
			msg.W[idx[f]] += inW
		}
	}
	for j, w := range sol.DroppedWeight {
		if w > 0 {
			msg.Y = append(msg.Y, st.col.Y[j])
			msg.Ell = append(msg.Ell, st.col.Ell[j])
			msg.W = append(msg.W, 1)
		}
	}
	return msg
}

// nodesPayload ships outliers as full distributions (the naive baseline).
func (st *uSite) nodesPayload(sol kmedian.Solution) comm.Payload {
	var centers comm.CollapsedMsg
	idx := make(map[int]int, len(sol.Centers))
	for _, f := range sol.Centers {
		idx[f] = len(centers.Y)
		centers.Y = append(centers.Y, st.col.Y[f])
		centers.Ell = append(centers.Ell, 0)
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
			for i, u := range nd.Support {
				wire.Support[i] = uint32(u)
			}
			outs.Nodes = append(outs.Nodes, wire)
		}
	}
	return comm.Multi{Parts: []comm.Payload{centers, outs}}
}

// centerPayload ships the first k+ti traversal collapse points with
// attached counts (the Algorithm 2 preclustering over collapsed nodes).
func (st *uSite) centerPayload() comm.Payload {
	m := st.cfg.K + st.budget
	if m > len(st.trav.Order) {
		m = len(st.trav.Order)
	}
	_, counts, _ := st.trav.AssignPrefixOpt(st.space, m, nil, st.kcOpt())
	var msg comm.CollapsedMsg
	for c := 0; c < m; c++ {
		j := st.trav.Order[c]
		msg.Y = append(msg.Y, st.col.Y[j])
		msg.Ell = append(msg.Ell, 0)
		msg.W = append(msg.W, counts[c])
	}
	return msg
}

// Run executes the distributed uncertain (k,t)-median/means/center-pp
// protocol (Algorithm 3 wrapped around Algorithm 1 or 2) with sites
// in-process over the backend cfg.Transport selects.
func Run(g *Ground, sites [][]Node, cfg Config, obj Objective) (Result, error) {
	return RunCtx(context.Background(), g, sites, cfg, obj)
}

// RunCtx is Run under a context: cancellation aborts the protocol between
// site computations and returns ctx.Err() promptly.
func RunCtx(ctx context.Context, g *Ground, sites [][]Node, cfg Config, obj Objective) (Result, error) {
	cfg = cfg.withDefaults()
	// Preemption reaches inside the k-median solves behind the collapsed
	// instances, not just between protocol rounds.
	cfg.LocalOpts.Ctx = ctx
	if len(sites) == 0 {
		return Result{}, fmt.Errorf("uncertain: no sites")
	}
	total := 0
	for i, nds := range sites {
		if len(nds) == 0 {
			return Result{}, fmt.Errorf("uncertain: site %d empty", i)
		}
		total += len(nds)
	}
	if cfg.K <= 0 || cfg.T < 0 || cfg.T >= total {
		return Result{}, fmt.Errorf("uncertain: bad K=%d T=%d (n=%d)", cfg.K, cfg.T, total)
	}
	handlers := make([]transport.Handler, len(sites))
	for i := range sites {
		h, err := NewSiteHandler(g, sites[i], cfg, obj, i)
		if err != nil {
			return Result{}, err
		}
		handlers[i] = h
	}
	tr, err := tree.NewLocal(ctx, cfg.Transport, handlers, !cfg.Sequential, cfg.Topology)
	if err != nil {
		return Result{}, err
	}
	defer tr.Close()
	return RunOverCtx(ctx, g, tr, cfg, obj)
}

// NewSiteHandler builds the site half of the uncertain protocol for site i
// holding nodes over the shared ground set g.
func NewSiteHandler(g *Ground, nodes []Node, cfg Config, obj Objective, site int) (transport.Handler, error) {
	cfg = cfg.withDefaults()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("uncertain: site %d empty", site)
	}
	if cfg.K <= 0 || cfg.T < 0 {
		return nil, fmt.Errorf("uncertain: bad K=%d T=%d", cfg.K, cfg.T)
	}
	return newUSite(g, nodes, cfg, obj, site).handle, nil
}

// RunOverCtx executes the coordinator side of the uncertain protocol over
// an already-connected transport (sites served elsewhere via NewSiteHandler
// with the identical config, objective and ground set g — in the paper's
// model the ground metric is shared knowledge). Cancelling ctx aborts the
// round loop and the coordinator solve promptly with ctx.Err().
func RunOverCtx(ctx context.Context, g *Ground, tr transport.Transport, cfg Config, obj Objective) (Result, error) {
	cfg = cfg.withDefaults()
	cfg.LocalOpts.Ctx = ctx
	if tr.Sites() == 0 {
		return Result{}, fmt.Errorf("uncertain: no sites")
	}
	nw := comm.NewOverCtx(ctx, tr)
	if obj == CenterPP {
		return runCenterPP(nw, cfg)
	}
	return runMedianMeans(g, nw, cfg, obj)
}

func runMedianMeans(g *Ground, nw *comm.Network, cfg Config, obj Objective) (Result, error) {
	squared := obj == Means

	var roundTwo [][]byte
	var budgets []int
	var err error
	if cfg.Variant == OneRoundShipDists {
		roundTwo, err = nw.SiteRound()
	} else {
		roundTwo, budgets, err = protocol.TwoRoundGather(nw, int(cfg.Rho*float64(cfg.T)), "uncertain")
	}
	if err != nil {
		return Result{}, err
	}

	var result Result
	if err := nw.Coordinator(func() error {
		col := &Collapsed{Squared: squared}
		var wts []float64
		for i, b := range roundTwo {
			y, ell, w, err := decodeCollapsed(b, cfg.Variant == OneRoundShipDists, g, squared, cfg.Candidates)
			if err != nil {
				return fmt.Errorf("uncertain: payload from site %d: %w", i, err)
			}
			col.Y = append(col.Y, y...)
			col.Ell = append(col.Ell, ell...)
			wts = append(wts, w...)
		}
		copt := cfg.LocalOpts
		copt.Seed += 555557
		var costs metric.Costs = col
		if !copt.Reference && !copt.NoCache {
			costs = metric.CacheCosts(col)
		}
		sol := kmedian.Bicriteria(costs, wts, cfg.K, float64(cfg.T), cfg.Eps, kmedian.RelaxOutliers, cfg.Engine, copt)
		result.Centers = clonePoints(col.Y, sol.Centers)
		result.CoordinatorClients = col.Len()
		return nil
	}); err != nil {
		return Result{}, err
	}

	finish(&result, nw, budgets, cfg)
	return result, nil
}

func runCenterPP(nw *comm.Network, cfg Config) (Result, error) {
	var roundTwo [][]byte
	var budgets []int
	var err error
	if cfg.Variant == OneRoundShipDists {
		roundTwo, err = nw.SiteRound()
	} else {
		roundTwo, budgets, err = protocol.TwoRoundGather(nw, int(cfg.Rho*float64(cfg.T)), "uncertain")
	}
	if err != nil {
		return Result{}, err
	}

	var result Result
	if err := nw.Coordinator(func() error {
		col := &Collapsed{}
		var wts []float64
		for i, b := range roundTwo {
			var msg comm.CollapsedMsg
			if err := msg.UnmarshalBinary(b); err != nil {
				return fmt.Errorf("uncertain: payload from site %d: %w", i, err)
			}
			col.Y = append(col.Y, msg.Y...)
			col.Ell = append(col.Ell, msg.Ell...)
			wts = append(wts, msg.W...)
		}
		sol := kcenter.PartialOpt(col, wts, cfg.K, float64(cfg.T),
			kcenter.Opt{Workers: cfg.LocalOpts.Workers, Reference: cfg.LocalOpts.Reference})
		result.Centers = clonePoints(col.Y, sol.Centers)
		result.CoordinatorClients = col.Len()
		return nil
	}); err != nil {
		return Result{}, err
	}

	finish(&result, nw, budgets, cfg)
	return result, nil
}

func finish(result *Result, nw *comm.Network, budgets []int, cfg Config) {
	result.Report = nw.Report()
	result.SiteBudgets = budgets
	result.OutlierBudget = (1 + cfg.Eps) * float64(cfg.T)
}

func capBudget(t, n int) int {
	if t >= n {
		return n - 1
	}
	return t
}

// decodeCollapsed extracts (y, ell, w) triples from a round-2 payload; for
// the naive variant the outlier nodes arrive as full distributions and are
// collapsed at the coordinator (over the shared ground set g).
func decodeCollapsed(b []byte, naive bool, g *Ground, squared bool, cand CandidateSet) ([]metric.Point, []float64, []float64, error) {
	if !naive {
		var msg comm.CollapsedMsg
		if err := msg.UnmarshalBinary(b); err != nil {
			return nil, nil, nil, err
		}
		return msg.Y, msg.Ell, msg.W, nil
	}
	parts, err := comm.SplitMulti(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(parts) != 2 {
		return nil, nil, nil, fmt.Errorf("uncertain: malformed naive payload (%d parts)", len(parts))
	}
	var centers comm.CollapsedMsg
	if err := centers.UnmarshalBinary(parts[0]); err != nil {
		return nil, nil, nil, err
	}
	var outs comm.NodesMsg
	if err := outs.UnmarshalBinary(parts[1]); err != nil {
		return nil, nil, nil, err
	}
	y := append([]metric.Point(nil), centers.Y...)
	ell := append([]float64(nil), centers.Ell...)
	w := append([]float64(nil), centers.W...)
	for _, wire := range outs.Nodes {
		nd := Node{Support: make([]int, len(wire.Support)), Prob: wire.Prob}
		for i, u := range wire.Support {
			nd.Support[i] = int(u)
		}
		var yi int
		var li float64
		if squared {
			yi, li = OneMean(g, nd, cand)
		} else {
			yi, li = OneMedian(g, nd, cand)
		}
		y = append(y, g.Pts[yi])
		ell = append(ell, li)
		w = append(w, 1)
	}
	return y, ell, w, nil
}

func clonePoints(pts []metric.Point, idx []int) []metric.Point {
	out := make([]metric.Point, len(idx))
	for i, f := range idx {
		out[i] = pts[f].Clone()
	}
	return out
}
