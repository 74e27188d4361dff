package metric

import "math"

// Oracle is the solver-facing view of a metric space: exact distances plus a
// nearest-candidate primitive and observability. DistCache and Points both
// satisfy it, so engines are written against the oracle and "memoized" and
// "raw" are deployment choices, not code paths.
//
// Nearest must be exact: it returns the first candidate attaining the
// minimum distance (strict-improvement scan order), bit-identical to a plain
// loop over cands.
type Oracle interface {
	Space
	// Nearest returns the index into the space (not into cands) of the
	// nearest candidate to p, and the exact distance. Ties break to the
	// earliest candidate; (-1, +Inf) when cands is empty.
	Nearest(p int, cands []int) (best int, d float64)
	// Stats snapshots the oracle's traffic counters.
	Stats() OracleStats
}

// OracleStats is a point-in-time snapshot of oracle traffic: memoized-cache
// lookups (zero for uncached oracles).
type OracleStats struct {
	Hits   int64
	Misses int64
}

// LBScale deflates every triangle lower bound (kmedian's nearest-center
// bound, the probe-only Index's pivot bounds) by a relative margin before it
// is compared against a computed distance, so float rounding in the
// underlying metric can never promote a bound above the distance it bounds.
// 1e-9 is ~6 orders of magnitude above the worst accumulated rounding of the
// built-in metrics and still far below any distance gap the solvers act on.
const LBScale = 1 - 1e-9

// scanNearest is the shared exact scan: first strict minimum.
func scanNearest(s Space, p int, cands []int) (int, float64) {
	best, bd := -1, math.Inf(1)
	for _, c := range cands {
		if d := s.Dist(p, c); d < bd {
			best, bd = c, d
		}
	}
	return best, bd
}

// Nearest implements Oracle by plain scan.
func (p *Points) Nearest(q int, cands []int) (int, float64) { return scanNearest(p, q, cands) }

// Stats implements Oracle; raw point sets have nothing to count.
func (p *Points) Stats() OracleStats { return OracleStats{} }

// Nearest implements Oracle by plain scan over memoized distances.
func (dc *DistCache) Nearest(p int, cands []int) (int, float64) {
	return scanNearest(dc, p, cands)
}

// Stats implements Oracle from the cache's Counters (zero if unattached).
func (dc *DistCache) Stats() OracleStats {
	var st OracleStats
	if dc.Counters != nil {
		st.Hits, st.Misses = dc.Counters.Snapshot()
	}
	return st
}
