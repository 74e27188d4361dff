package metric

import "math"

// Oracle is what a site's solver accepts as a caller-owned distance oracle
// over its points (core.NewSiteHandlerOracle): exact distances, nothing
// more. DistCache and Points both satisfy it, so "memoized" and "raw" are
// deployment choices, not code paths; a long-lived site passes one
// DistCache to every job over the same shard.
type Oracle interface {
	Space
}

// LBScale deflates every triangle lower bound (kmedian's nearest-center
// bound, the probe-only Index's pivot bounds) by a relative margin before it
// is compared against a computed distance, so float rounding in the
// underlying metric can never promote a bound above the distance it bounds.
// 1e-9 is ~6 orders of magnitude above the worst accumulated rounding of the
// built-in metrics and still far below any distance gap the solvers act on.
const LBScale = 1 - 1e-9

// scanNearest is the exact nearest-candidate scan Index.Nearest must match:
// the first strict minimum.
func scanNearest(s Space, p int, cands []int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for _, c := range cands {
		if d := s.Dist(p, c); d < bd {
			best, bd = c, d
		}
	}
	return best, bd
}
