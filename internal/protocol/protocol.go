// Package protocol owns the round structure of the paper's distributed
// algorithms. Algorithms 2 and 3 are Algorithm 1 with a different local
// cost curve and precluster payload ("subsequent steps as in Algorithm 1"),
// so the shape is written once here: every site ships the convex hull of
// its local cost curve on a geometric budget grid, the coordinator ranks the
// slopes and broadcasts the pivot, every site derives its budget t_i from
// the pivot and ships its preclustering, and the coordinator solves the
// union. An algorithm supplies the two halves that differ — a Site (how
// many items it holds, its cost curve, its payload for a budget) and a
// Reducer (decode one site's payload, solve the union) — and knows nothing
// of round numbers, the hull and pivot messages, budget capping, the
// 1-round baseline (t_i = t, no hull, no pivot) or how an in-process fleet
// is stood up; Handler, Run and RunLocal own those, and Result is the one
// outcome type. Algorithm 4 has a round shape no other protocol uses (a
// hull per truncation threshold, the chosen threshold riding in the pivot
// broadcast) and keeps its own round switch and driver in
// internal/uncertain/centerg.go, built from the same pieces: SiteHandler,
// DecodePivot / BroadcastPivot, CapBudget, BudgetSolver, RunLocal, Result.
//
// Where a span per protocol step would go (ROADMAP direction 6), for all
// seven objectives:
//
//   - every site solve and every site encode: SiteHandler, which wraps the
//     round function of every site half (Handler's and Algorithm 4's) — the
//     solve is its call to that function, the encode its comm.Encode;
//   - every gather: comm.Network.SiteRound, which outside its tests has
//     callers only in Run and in Algorithm 4's driver;
//   - every coordinator-side decode and solve: the closures handed to
//     comm.Network.Coordinator — hull decode + allocation and payload
//     decode + final solve in Run, the same two steps in Algorithm 4's
//     driver. Cancellation at any boundary is Network's: those two methods
//     are also the only places a run notices its context.
package protocol

import (
	"context"
	"fmt"

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
	// Name is the calling protocol ("core", "uncertain"); it tags every
	// error the skeleton reports.
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
}

// Site is the algorithm half of one site. The skeleton calls Curve at most
// once and before Precluster; anything a site computes lazily inside these
// calls is booked as site time on every transport.
type Site interface {
	// Len is the number of input items the site holds; budgets stay below it.
	Len() int
	// Curve returns the site's local cost at every budget of grid
	// (ascending, ending at the capped budget).
	Curve(grid []int) []float64
	// Precluster returns the site's preclustering for budget b.
	Precluster(b Budget) comm.Payload
}

// Reducer is the algorithm half of the coordinator.
type Reducer interface {
	// Add decodes one site's precluster payload into the union instance;
	// the skeleton calls it once per site, in site order.
	Add(payload []byte) error
	// Solve solves the union and fills res.Centers, res.CoordinatorClients
	// and res.CoordinatorCost.
	Solve(res *Result)
}

// CapBudget bounds a site budget so at least one of its n items remains
// clustered.
func CapBudget(t, n int) int {
	if t >= n {
		return n - 1
	}
	return t
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

// SiteHandler turns a site half's round function into a transport.Handler:
// the site computes its reply, then the reply is encoded.
func SiteHandler(rounds func(round int, in []byte) (comm.Payload, error)) transport.Handler {
	return func(round int, in []byte) ([]byte, error) {
		p, err := rounds(round, in)
		if err != nil {
			return nil, err
		}
		return comm.Encode(p)
	}
}

// Handler builds the site half of the skeleton for site number `site`:
// driven purely by the round number and the wire bytes the coordinator
// sent, so the same code runs in-process and in a separate dpc-site process.
func Handler(p Params, site int, s Site) transport.Handler {
	var hull geom.ConvexFn // round 0's, kept for round 1
	return SiteHandler(func(round int, in []byte) (comm.Payload, error) {
		tcap := CapBudget(p.T, s.Len())
		switch {
		case p.OneRound && round == 0:
			return s.Precluster(Budget{T: tcap, Lo: tcap, Hi: tcap}), nil

		case !p.OneRound && round == 0:
			// Lines 1-6: sample the local cost on the grid, ship its hull.
			grid := geom.Grid(tcap, p.HullBase)
			samples := make([]geom.Vertex, len(grid))
			for i, c := range s.Curve(grid) {
				samples[i] = geom.Vertex{Q: grid[i], C: c}
			}
			fn, err := geom.NewConvexFn(samples)
			if err != nil {
				return nil, fmt.Errorf("%s: site hull: %w", p.Name, err)
			}
			hull = fn
			return comm.HullMsg{V: fn.Vertices()}, nil

		case !p.OneRound && round == 1:
			// Lines 10-16: t_i from the pivot, preclustering up.
			pivot, _, err := DecodePivot(in)
			if err != nil {
				return nil, fmt.Errorf("%s: site pivot: %w", p.Name, err)
			}
			b := Budget{T: alloc.FinalBudget(hull, site, pivot)}
			b.Lo, b.Hi = b.T, b.T
			if site == pivot.I0 && !hull.IsVertex(b.T) {
				b.Lo, b.Hi = hull.PrevVertex(b.T), hull.NextVertex(b.T)
			}
			return s.Precluster(b), nil
		}
		return nil, fmt.Errorf("%s: site has no round %d (one-round %v)", p.Name, round, p.OneRound)
	})
}

// DecodePivot parses the coordinator's round-2 broadcast: the pivot, and
// the truncation threshold Algorithm 4 sends along (zero otherwise).
func DecodePivot(in []byte) (alloc.Pivot, float64, error) {
	var pm comm.PivotMsg
	if err := pm.UnmarshalBinary(in); err != nil {
		return alloc.Pivot{}, 0, err
	}
	return alloc.Pivot{I0: pm.I0, Q0: pm.Q0, L0: pm.L0, Rank: pm.Rank, Exhausted: pm.Exhausted}, pm.Tau, nil
}

// BroadcastPivot sends every site the pivot (Step 9) and tau, the message
// DecodePivot parses.
func BroadcastPivot(nw *comm.Network, p alloc.Pivot, tau float64) error {
	return nw.Broadcast(comm.PivotMsg{I0: p.I0, Q0: p.Q0, L0: p.L0, Rank: p.Rank, Exhausted: p.Exhausted, Tau: tau})
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
	var res Result
	if !p.OneRound {
		// Lines 1-9: hulls up, pivot of rank rho*t down.
		hullUp, err := nw.SiteRound()
		if err != nil {
			return Result{}, err
		}
		var pivot alloc.Pivot
		fns := make([]geom.ConvexFn, len(hullUp))
		if err := nw.Coordinator(func() error {
			for i, b := range hullUp {
				var msg comm.HullMsg
				if err := msg.UnmarshalBinary(b); err != nil {
					return fmt.Errorf("%s: coordinator hull %d: %w", p.Name, i, err)
				}
				fn, err := geom.NewConvexFn(msg.V)
				if err != nil {
					return fmt.Errorf("%s: coordinator hull %d: %w", p.Name, i, err)
				}
				fns[i] = fn
			}
			pivot, _ = alloc.Allocate(fns, int(p.Rho*float64(p.T)))
			return nil
		}); err != nil {
			return Result{}, err
		}
		if err := BroadcastPivot(nw, pivot, 0); err != nil {
			return Result{}, err
		}
		// Step 11 is deterministic in hull + pivot: replaying it here tells
		// the coordinator every t_i without a byte spent reporting them.
		res.SiteBudgets = make([]int, len(fns))
		for i, fn := range fns {
			res.SiteBudgets[i] = alloc.FinalBudget(fn, i, pivot)
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
