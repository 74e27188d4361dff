// Package protocol owns the round structure of the paper's distributed
// algorithms. Algorithms 2 and 3 are Algorithm 1 with a different local
// cost curve and precluster payload ("subsequent steps as in Algorithm 1"),
// and Algorithm 4 is Algorithm 1 with one hull per truncation threshold tau
// and Step 6 choosing the threshold, so the shape is written once here:
// every site ships the convex hull of its local cost curve on a geometric
// budget grid (one hull per parameter of Params.TauGrid), the coordinator
// picks the parameter, ranks the slopes and broadcasts the pivot, every site
// derives its budget t_i from the pivot and ships its preclustering, and the
// coordinator solves the union. An algorithm supplies the two halves that
// differ — a Site (how many items it holds, its cost curve per parameter,
// its payload for a budget) and a Reducer (decode one site's payload, solve
// the union) — and knows nothing of round numbers, the hull and pivot
// messages, budget capping, the 1-round baseline (t_i = t, no hull, no
// pivot) or how an in-process fleet is stood up; Handler, Run and RunLocal
// own those, and Result is the one outcome type.
//
// Where a span per protocol step would go (ROADMAP direction 6), for all
// seven objectives:
//
//   - every site solve and every site encode: Handler — the solve is its
//     call into the Site, the encode its comm.Encode;
//   - every gather, and every coordinator-side decode and solve: Run — the
//     gathers are its comm.Network.SiteRound calls, the decodes and solves
//     the closures it hands comm.Network.Coordinator (hull decode +
//     parameter choice + allocation, payload decode + final solve).
//     Cancellation at any boundary is Network's: those two methods are also
//     the only places a run notices its context.
package protocol

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dpc/internal/alloc"
	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

// Params is the part of a run configuration the skeleton itself reads;
// both halves of a run must be built from the same values (the job frame
// ships the configuration they derive from).
type Params struct {
	// Name is the calling protocol ("core", "uncertain", "central"); it
	// tags every error the skeleton reports.
	Name string
	// T is the global outlier budget.
	T int
	// Rho is the allocation rank multiplier: the pivot is the slope entry
	// of rank Rho*T.
	Rho float64
	// HullBase is the base of the geometric budget grid (Line 2 of
	// Algorithm 1).
	HullBase float64
	// OneRound selects the 1-round baseline: every site preclusters with
	// the full budget T in round 0.
	OneRound bool
	// TauGrid is Algorithm 4's grid of truncation thresholds, ascending: a
	// site ships one hull per threshold and the coordinator picks one by
	// Step 6 (PickTau). Nil for Algorithms 1-3, which have one parameter.
	TauGrid []float64
}

// Result is the outcome of a distributed run of any protocol.
type Result struct {
	// Centers are the chosen centers as points (ground-space points for the
	// uncertain objectives).
	Centers []metric.Point
	// Report is the measured communication/time footprint.
	Report comm.Report
	// SiteBudgets are the per-site outlier budgets t_i chosen by the
	// allocation — the coordinator's replay of Step 11, which costs no
	// bytes (nil for 1-round runs, where t_i = t).
	SiteBudgets []int
	// CoordinatorClients is the size of the induced weighted instance the
	// coordinator solved (the paper bounds it by 2sk + 3t). Algorithm 4
	// does not report it.
	CoordinatorClients int
	// OutlierBudget is the number of (weighted) points the solution is
	// entitled to ignore globally.
	OutlierBudget float64
	// CoordinatorCost is the coordinator's objective value on the induced
	// weighted instance (not the true global cost).
	CoordinatorCost float64
	// Tau is the truncation threshold Algorithm 4's parametric search
	// selected (Step 6); Copt(A,k,t) >= Tau/3 by Lemma 5.13, so it is also a
	// lower-bound witness. TauGrid is the searched grid, O(log Delta) long.
	// Both are zero outside Algorithm 4.
	Tau     float64
	TauGrid []float64
}

// Budget is a site's share of the outlier budget, as the skeleton derived
// it from the pivot (or T itself, capped, in a 1-round run).
type Budget struct {
	// T is t_i.
	T int
	// Lo and Hi are the vertices of the site's hull that bracket T. They
	// equal T except at the pivot's own site when T falls strictly inside a
	// hull edge, where no single local solution achieves the hull cost and
	// Theorem 3.8's variant combines the two endpoint solutions (Lemma 3.7).
	Lo, Hi int
	// Param is the parameter (an index into Params.TauGrid) whose hull T
	// was derived from; always 0 for the one-parameter protocols, and 0 in a
	// 1-round run, where a site of several parameters ships all of them.
	Param int
}

// Site is the algorithm half of one site. The skeleton calls Curve at most
// once per parameter and before Precluster; anything a site computes lazily
// inside these calls is booked as site time on every transport.
type Site interface {
	// Len is the number of input items the site holds; budgets stay below it.
	Len() int
	// Curve returns the site's local cost under parameter param (an index
	// into Params.TauGrid, 0 without one) at every budget of grid
	// (ascending, ending at the capped budget).
	Curve(param int, grid []int) []float64
	// Precluster returns the site's preclustering for budget b.
	Precluster(b Budget) comm.Payload
}

// Reducer is the algorithm half of the coordinator.
type Reducer interface {
	// Add decodes one site's precluster payload into the union instance;
	// the skeleton calls it once per site, in site order.
	Add(payload []byte) error
	// Solve solves the union and fills res.Centers, res.CoordinatorClients
	// and res.CoordinatorCost. In a 2-round run over a TauGrid, res.Tau is
	// already the chosen threshold; in a 1-round one, Solve picks and fills it.
	Solve(res *Result)
}

// PickTau is Step 6 of Algorithm 4: the first threshold of grid whose
// summed local cost is at most 12 tau, else the last one. It calls cost in
// grid order and never past the index it returns, so the last call is
// always the chosen threshold's.
func PickTau(grid []float64, cost func(i int) float64) int {
	for i, tau := range grid {
		if cost(i) <= 12*tau {
			return i
		}
	}
	return len(grid) - 1
}

// PointsAt selects pts[i] for every i of idx — a solution's facility
// indices as points. The points are shared with pts, not copied.
func PointsAt(pts []metric.Point, idx []int) []metric.Point {
	out := make([]metric.Point, len(idx))
	for i, f := range idx {
		out[i] = pts[f]
	}
	return out
}

// Handler builds the site half of the skeleton for site number `site`:
// driven purely by the round number and the wire bytes the coordinator
// sent, so the same code runs in-process and in a separate dpc-site process.
// The site computes its reply, then the reply is encoded.
func Handler(p Params, site int, s Site) transport.Handler {
	var hulls []geom.ConvexFn // round 0's, one per parameter, kept for round 1
	return func(round int, in []byte) ([]byte, error) {
		tcap := min(p.T, s.Len()-1) // at least one item stays clustered
		switch {
		case p.OneRound && round == 0:
			return comm.Encode(s.Precluster(Budget{T: tcap, Lo: tcap, Hi: tcap}))

		case !p.OneRound && round == 0:
			// Lines 1-6: sample the local cost on the grid, ship its hull —
			// one per parameter.
			grid := geom.Grid(tcap, p.HullBase)
			hulls = make([]geom.ConvexFn, max(len(p.TauGrid), 1))
			msg := comm.HullsMsg{Hulls: make([][]geom.Vertex, len(hulls))}
			for pi := range hulls {
				samples := make([]geom.Vertex, len(grid))
				for i, c := range s.Curve(pi, grid) {
					samples[i] = geom.Vertex{Q: grid[i], C: c}
				}
				fn, err := geom.NewConvexFn(samples)
				if err != nil {
					return nil, fmt.Errorf("%s: site hull: %w", p.Name, err)
				}
				hulls[pi], msg.Hulls[pi] = fn, fn.Vertices()
			}
			if len(p.TauGrid) == 0 {
				return comm.Encode(comm.HullMsg{V: msg.Hulls[0]})
			}
			return comm.Encode(msg)

		case !p.OneRound && round == 1 && hulls != nil:
			// Lines 10-16: t_i from the pivot, preclustering up. The pivot
			// carries the chosen threshold; the site locates it on its grid.
			var pm comm.PivotMsg
			if err := pm.UnmarshalBinary(in); err != nil {
				return nil, fmt.Errorf("%s: site pivot: %w", p.Name, err)
			}
			pi := 0
			if len(p.TauGrid) > 0 {
				if pi = slices.Index(p.TauGrid, pm.Tau); pi < 0 {
					return nil, fmt.Errorf("%s: site pivot: tau %g is not on the site's grid", p.Name, pm.Tau)
				}
			}
			pivot, hull := alloc.Pivot{I0: pm.I0, Q0: pm.Q0, L0: pm.L0, Rank: pm.Rank, Exhausted: pm.Exhausted}, hulls[pi]
			b := Budget{T: alloc.FinalBudget(hull, site, pivot), Param: pi}
			b.Lo, b.Hi = b.T, b.T
			if site == pivot.I0 && !hull.IsVertex(b.T) {
				b.Lo, b.Hi = hull.PrevVertex(b.T), hull.NextVertex(b.T)
			}
			return comm.Encode(s.Precluster(b))
		}
		return nil, fmt.Errorf("%s: site has no round %d (one-round %v)", p.Name, round, p.OneRound)
	}
}

// checkHull rejects a decoded hull no honest site ships: an honest grid ends
// at min(t, Len-1), and its costs are finite. A budget past t would let one
// site's hull hand that site (and, summed, the run) any outlier budget it
// likes; a NaN or infinite cost would make the slopes unorderable.
func checkHull(vs []geom.Vertex, t int) error {
	for _, v := range vs {
		if v.Q > t {
			return fmt.Errorf("budget %d above t = %d", v.Q, t)
		}
		if math.IsNaN(v.C) || math.IsInf(v.C, 0) {
			return fmt.Errorf("cost %g at budget %d", v.C, v.Q)
		}
	}
	return nil
}

// Run drives the coordinator half of the skeleton over an already-connected
// transport whose sites serve Handler with the same Params: gather the
// preclusterings (after the hull and pivot rounds, unless OneRound), then
// decode and solve them with red. The caller fills Result.OutlierBudget,
// the one field that is neither measured nor red's. Cancelling ctx aborts
// at the next gather or coordinator step with ctx.Err(); the transport is
// left open.
func Run(ctx context.Context, tr transport.Transport, p Params, red Reducer) (Result, error) {
	if tr.Sites() == 0 {
		return Result{}, fmt.Errorf("%s: no sites", p.Name)
	}
	nw := comm.NewOverCtx(ctx, tr)
	res := Result{TauGrid: p.TauGrid}
	if !p.OneRound {
		// Lines 1-9: hulls up, pivot of rank rho*t down.
		hullUp, err := nw.SiteRound()
		if err != nil {
			return Result{}, err
		}
		var pivot alloc.Pivot
		if err := nw.Coordinator(func() error {
			fns := make([][]geom.ConvexFn, max(len(p.TauGrid), 1)) // [parameter][site]
			for i, b := range hullUp {
				var msg comm.HullsMsg
				var err error
				if len(p.TauGrid) == 0 {
					var one comm.HullMsg
					err = one.UnmarshalBinary(b)
					msg.Hulls = [][]geom.Vertex{one.V}
				} else if err = msg.UnmarshalBinary(b); err == nil && len(msg.Hulls) != len(fns) {
					err = fmt.Errorf("%d hulls, want %d", len(msg.Hulls), len(fns))
				}
				for pi := 0; err == nil && pi < len(fns); pi++ {
					var fn geom.ConvexFn
					if err = checkHull(msg.Hulls[pi], p.T); err == nil {
						fn, err = geom.NewConvexFn(msg.Hulls[pi])
					}
					fns[pi] = append(fns[pi], fn)
				}
				if err != nil {
					return fmt.Errorf("%s: coordinator hull %d: %w", p.Name, i, err)
				}
			}
			// Allocate under one parameter, returning the allocated hull
			// costs. Step 11 is deterministic in hull + pivot: replaying it
			// here tells the coordinator every t_i without a byte spent
			// reporting them.
			allocate := func(pi int) float64 {
				pivot, _ = alloc.Allocate(fns[pi], int(p.Rho*float64(p.T)))
				res.SiteBudgets = make([]int, len(fns[pi]))
				var sum float64
				for i, fn := range fns[pi] {
					res.SiteBudgets[i] = alloc.FinalBudget(fn, i, pivot)
					sum += fn.Eval(res.SiteBudgets[i])
				}
				return sum
			}
			if len(p.TauGrid) == 0 {
				allocate(0)
			} else {
				res.Tau = p.TauGrid[PickTau(p.TauGrid, allocate)]
			}
			return nil
		}); err != nil {
			return Result{}, err
		}
		// Step 9, with the chosen threshold riding along.
		if err := nw.Broadcast(comm.PivotMsg{I0: pivot.I0, Q0: pivot.Q0, L0: pivot.L0, Rank: pivot.Rank, Exhausted: pivot.Exhausted, Tau: res.Tau}); err != nil {
			return Result{}, err
		}
	}
	up, err := nw.SiteRound()
	if err != nil {
		return Result{}, err
	}
	if err := nw.Coordinator(func() error {
		for i, b := range up {
			if err := red.Add(b); err != nil {
				return fmt.Errorf("%s: precluster from site %d: %w", p.Name, i, err)
			}
		}
		red.Solve(&res)
		// The caller owns its centers: red's may alias the union or, for
		// uncertain data, the shared ground set.
		for i, c := range res.Centers {
			res.Centers[i] = c.Clone()
		}
		return nil
	}); err != nil {
		return Result{}, err
	}
	res.Report = nw.Report()
	return res, nil
}
