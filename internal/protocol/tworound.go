// Package protocol holds the round skeleton shared by every two-round
// algorithm in the repository (Algorithm 1, Algorithm 2, and Algorithm 3's
// wrapping of both): hulls up, pivot allocation, pivot broadcast,
// preclusterings up. Keeping it in one place means the pivot/allocation
// wire contract cannot drift between the median, center and uncertain
// drivers.
package protocol

import (
	"fmt"

	"dpc/internal/alloc"
	"dpc/internal/comm"
	"dpc/internal/geom"
)

// TwoRoundGather drives the coordinator side of the shared skeleton
// (Lines 1-14 of Algorithm 1): gather one hull per site, rank slopes and
// pick the pivot of the given rank, broadcast it, and gather the round-2
// payloads. It returns those payloads plus the coordinator's replay of
// every site's final budget (Step 11 is deterministic in hull + pivot, so
// no extra bytes are spent reporting budgets). prefix tags error messages
// with the calling protocol.
func TwoRoundGather(nw *comm.Network, rank int, prefix string) ([][]byte, []int, error) {
	hullUp, err := nw.SiteRound()
	if err != nil {
		return nil, nil, err
	}

	var pivot alloc.Pivot
	fns := make([]geom.ConvexFn, nw.Sites())
	if err := nw.Coordinator(func() error {
		for i, b := range hullUp {
			var msg comm.HullMsg
			if err := msg.UnmarshalBinary(b); err != nil {
				return fmt.Errorf("%s: coordinator hull %d: %w", prefix, i, err)
			}
			fn, err := geom.NewConvexFn(msg.V)
			if err != nil {
				return fmt.Errorf("%s: coordinator hull %d: %w", prefix, i, err)
			}
			fns[i] = fn
		}
		pivot, _ = alloc.Allocate(fns, rank)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := nw.Broadcast(comm.PivotMsg{
		I0: pivot.I0, Q0: pivot.Q0, L0: pivot.L0,
		Rank: pivot.Rank, Exhausted: pivot.Exhausted,
	}); err != nil {
		return nil, nil, err
	}

	roundTwo, err := nw.SiteRound()
	if err != nil {
		return nil, nil, err
	}
	budgets := make([]int, len(fns))
	for i, fn := range fns {
		budgets[i] = alloc.FinalBudget(fn, i, pivot)
	}
	return roundTwo, budgets, nil
}
