package metric

import (
	"math"
	"sync/atomic"
)

// Oracle is the solver-facing view of a metric space: exact distances plus a
// nearest-candidate primitive and observability. DistCache, Points and Index
// all satisfy it, so engines are written against the oracle and "memoized",
// "raw" and "indexed" become deployment choices, not code paths.
//
// Nearest must be exact: it returns the first candidate attaining the
// minimum distance (strict-improvement scan order), bit-identical to a plain
// loop over cands — implementations may skip candidates only when a proven
// lower bound says they cannot win.
type Oracle interface {
	Space
	// Nearest returns the index into the space (not into cands) of the
	// nearest candidate to p, and the exact distance. Ties break to the
	// earliest candidate; (-1, +Inf) when cands is empty.
	Nearest(p int, cands []int) (best int, d float64)
	// Stats snapshots the oracle's traffic counters.
	Stats() OracleStats
}

// OracleStats is a point-in-time snapshot of oracle traffic. Hits/Misses
// count memoized-cache lookups (zero for uncached oracles); Scanned/Pruned
// count Nearest candidates evaluated vs skipped by lower bounds (the
// solvers' inline pruning is deliberately uncounted — the hot loops stay
// free of shared counters).
type OracleStats struct {
	Hits    int64
	Misses  int64
	Scanned int64
	Pruned  int64
	// Pivots is the index anchor count (0 = no index).
	Pivots int
	// Indexed reports that a pivot index is active: built, self-checked,
	// and pruning. False for plain oracles and for an Index whose metric
	// failed the triangle self-check (it serves full scans instead).
	Indexed bool
}

// DistPruner is the Space-level pruning hook: PruneDist(i, j, thresh)
// returns true only when the implementation can prove d(i,j) >= thresh, so
// a strict-improvement scan may skip the pair without changing its result.
// Returning false is always allowed (the caller just computes the distance).
type DistPruner interface {
	PruneDist(i, j int, thresh float64) bool
}

// CostPruner is the Costs-level twin: true only when Cost(client, facility)
// >= thresh is guaranteed.
type CostPruner interface {
	PruneCost(client, facility int, thresh float64) bool
}

// scanNearest is the shared exact fallback: first strict minimum.
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

// DefaultPivots is the anchor count NewIndex uses when IndexOptions.Pivots
// is zero: enough pivots that one of them usually sits near the query's
// cluster (tight bounds), few enough that a bound check stays an order of
// magnitude cheaper than a distance evaluation.
const DefaultPivots = 16

// LBScale deflates every triangle lower bound (the index's pivot bounds,
// kmedian's nearest-center bound) by a relative margin before it is
// compared against a computed distance, so float rounding in the underlying
// metric can never promote a bound above the distance it bounds. 1e-9 is ~6
// orders of magnitude above the worst accumulated rounding of the built-in
// metrics and still far below any distance gap the solvers act on.
const LBScale = 1 - 1e-9

// indexCheckEps is the relative slack of the index's triangle self-check,
// matching CheckMetric's tolerance.
const indexCheckEps = 1e-9

// probePivots caps how many pivot bounds one Prune*/Nearest call examines
// when the index holds more. Declining to prune is always sound (the caller
// just evaluates the exact distance), so the hot paths trade a sliver of
// pruning power for a hard ceiling on per-candidate overhead: without the
// cap, every failed prune scans all m columns — about the cost of the
// distance it was trying to avoid. The probes are ordered strongest-first
// (see PruneDist), so the cap rarely costs a prune that mattered.
const probePivots = 4

// IndexOptions tunes NewIndex.
type IndexOptions struct {
	// Pivots is the anchor count (0 = DefaultPivots, capped at N).
	Pivots int
}

// Index is a pivot-based metric index over an exact distance oracle. It
// samples m anchor points by a deterministic farthest-first sweep,
// precomputes every point→pivot distance, and serves triangle-inequality
// lower bounds |d(p,a) − d(a,c)| <= d(p,c), which Nearest and the Prune*
// hooks use to skip candidates that provably cannot beat the current best.
//
// Exactness: a candidate is skipped only when its (margin-deflated) lower
// bound already meets the caller's threshold, so every skipped candidate
// would have lost the strict comparison anyway — scans produce bit-identical
// results with the index on or off. Before trusting the bounds, the
// constructor self-checks the triangle inequality on every (point, pivot,
// pivot) triple it has precomputed; a violating oracle (Ok()==false)
// degrades the index to plain full scans, never to wrong answers.
//
// Index implements Space, Costs (self facilities) and Oracle by delegating
// exact distances to the wrapped space.
type Index struct {
	S Space

	m      int
	pivots []int
	// pd is point-major: pd[i*m+a] = d(i, pivot a), exactly as the wrapped
	// oracle returned it. One candidate's bounds are m contiguous floats.
	pd []float64
	// nearest[i] is the pd column of the pivot closest to point i — the
	// probe that yields the tightest bound for pairs involving i, tried
	// first by the capped Prune*/Nearest loops; derived from pd.
	nearest []int32
	ok      bool

	scanned atomic.Int64
	pruned  atomic.Int64
}

// NewIndex builds the pivot index for s, computing N()*m distances through
// the wrapped oracle (warming it, when it is a cache) and self-checking the
// triangle inequality on the precomputed triples.
func NewIndex(s Space, opt IndexOptions) *Index {
	n := s.N()
	m := opt.Pivots
	if m <= 0 {
		m = DefaultPivots
	}
	if m > n {
		m = n
	}
	ix := &Index{S: s, m: m}
	if n == 0 || m == 0 {
		return ix
	}
	ix.pivots = make([]int, 0, m)
	ix.pd = make([]float64, n*m)

	// Hybrid pivot sweep from point 0: odd slots take the farthest-first
	// (Gonzalez) pick — extreme points, whose columns bound candidates on
	// the data's fringe — and even slots take an index-stratified pick from
	// the body of the data. Pure farthest-first fails on instances with a
	// few scattered outliers: every pivot lands on an outlier, all cluster
	// points look equidistant from all pivots, and the bounds go vacuous.
	// In-distribution pivots keep per-cluster distances small and
	// cross-cluster differences large, which is what the lower bound feeds
	// on. The sweep is fully deterministic, so every build over the same
	// points is the same index. Each round fills one pd column.
	mind := make([]float64, n)
	used := make([]bool, n)
	for a := 0; a < m; a++ {
		var next int
		switch {
		case a == 0:
			next = 0
		case a%2 == 1:
			// Farthest-first: a used point has mind 0, so it can only be
			// re-picked in the all-duplicates degenerate case.
			next = 0
			far := -1.0
			for j := 0; j < n; j++ {
				if mind[j] > far {
					far, next = mind[j], j
				}
			}
		default:
			// Stratified: evenly spaced through the index order, probing
			// past already-chosen pivots.
			next = a * n / m
			for used[next] {
				next = (next + 1) % n
			}
		}
		ix.pivots = append(ix.pivots, next)
		used[next] = true
		for j := 0; j < n; j++ {
			d := s.Dist(j, next)
			ix.pd[j*m+a] = d
			if a == 0 || d < mind[j] {
				mind[j] = d
			}
		}
	}

	ix.finish()
	return ix
}

// finish derives the nearest-pivot table from pd and runs the metric
// self-check.
func (ix *Index) finish() {
	n, m := ix.S.N(), ix.m
	ix.nearest = make([]int32, n)
	for i := 0; i < n; i++ {
		row := ix.pd[i*m : i*m+m]
		best := 0
		for a, d := range row {
			if d < row[best] {
				best = a
			}
		}
		ix.nearest[i] = int32(best)
	}
	ix.ok = ix.selfCheck()
}

// selfCheck verifies the triangle inequality over every (point, pivot,
// pivot) triple — O(n·m²) on distances the build already computed. This is
// exactly the family of triples the pruning bound relies on: for the bound
// |d(p,a) − d(a,c)| <= d(p,c) to hold, d must be a metric on triangles
// through the anchors.
func (ix *Index) selfCheck() bool {
	n := ix.S.N()
	m := ix.m
	for a := 0; a < m; a++ {
		// Pivot row sanity: d(pivot_a, pivot_a) = 0, nonnegative distances.
		if d := ix.pd[ix.pivots[a]*m+a]; math.Abs(d) > indexCheckEps {
			return false
		}
		for b := a + 1; b < m; b++ {
			dab := ix.pd[ix.pivots[a]*m+b] // d(pivot_a, pivot_b)
			if dab < 0 {
				return false
			}
			for j := 0; j < n; j++ {
				da, db := ix.pd[j*m+a], ix.pd[j*m+b]
				if da < 0 || db < 0 {
					return false
				}
				// |d(j,a) − d(j,b)| <= d(a,b) up to relative slack.
				if diff := math.Abs(da - db); diff-dab > indexCheckEps*(1+diff) {
					return false
				}
			}
		}
	}
	return true
}

// Ok reports whether the metric self-check passed and pruning is active.
func (ix *Index) Ok() bool { return ix.ok }

// Pivots returns the chosen anchor indices (read-only view).
func (ix *Index) Pivots() []int { return ix.pivots }

// N implements Space.
func (ix *Index) N() int { return ix.S.N() }

// Dist implements Space, delegating to the exact wrapped oracle.
func (ix *Index) Dist(i, j int) float64 { return ix.S.Dist(i, j) }

// Clients implements Costs (self facilities, like Points).
func (ix *Index) Clients() int { return ix.S.N() }

// Facilities implements Costs.
func (ix *Index) Facilities() int { return ix.S.N() }

// Cost implements Costs.
func (ix *Index) Cost(c, f int) float64 { return ix.S.Dist(c, f) }

// PruneDist implements DistPruner: true only when some pivot proves
// d(i,j) >= thresh. Probes are ordered strongest-first — the pivot hugging
// either endpoint nearly measures d(i,j) itself, since
// |d(i,a) − d(j,a)| >= d(i,j) − 2·d(j,a) — and capped at probePivots, so
// both outcomes stay cheap: a prune usually costs one compare, a declined
// prune at most four.
func (ix *Index) PruneDist(i, j int, thresh float64) bool {
	if !ix.ok {
		return false
	}
	if thresh <= 0 {
		// Distances are nonnegative, so d >= thresh holds vacuously; the
		// candidate cannot win a strict-improvement comparison.
		return true
	}
	bi, bj := i*ix.m, j*ix.m
	if ix.m > probePivots {
		return ix.probe(bi, bj, int(ix.nearest[j]), thresh) ||
			ix.probe(bi, bj, int(ix.nearest[i]), thresh) ||
			ix.probe(bi, bj, 1, thresh) ||
			ix.probe(bi, bj, 2, thresh)
	}
	for a := 0; a < ix.m; a++ {
		if ix.probe(bi, bj, a, thresh) {
			return true
		}
	}
	return false
}

// probe reports whether pd column a proves d(i,j) >= thresh, given the two
// precomputed row offsets.
func (ix *Index) probe(bi, bj, a int, thresh float64) bool {
	d := ix.pd[bi+a] - ix.pd[bj+a]
	if d < 0 {
		d = -d
	}
	return d*LBScale >= thresh
}

// PruneCost implements CostPruner (self costs — Cost is Dist).
func (ix *Index) PruneCost(client, facility int, thresh float64) bool {
	return ix.PruneDist(client, facility, thresh)
}

// DistLowerBound returns the margin-deflated pivot lower bound on d(i,j)
// (0 when the self-check failed). Exposed for tests and diagnostics; the
// hot paths use the early-exiting Prune* forms.
func (ix *Index) DistLowerBound(i, j int) float64 {
	if !ix.ok {
		return 0
	}
	bi, bj := i*ix.m, j*ix.m
	best := 0.0
	for a := 0; a < ix.m; a++ {
		d := ix.pd[bi+a] - ix.pd[bj+a]
		if d < 0 {
			d = -d
		}
		if d > best {
			best = d
		}
	}
	return best * LBScale
}

// Nearest implements Oracle: an exact first-strict-minimum scan that skips
// candidates whose pivot bound proves they cannot beat the current best.
func (ix *Index) Nearest(p int, cands []int) (int, float64) {
	if !ix.ok {
		best, bd := scanNearest(ix.S, p, cands)
		ix.scanned.Add(int64(len(cands)))
		return best, bd
	}
	best, bd := -1, math.Inf(1)
	scanned, pruned := 0, 0
	bp := p * ix.m
	capped := ix.m > probePivots
	for _, c := range cands {
		if best >= 0 {
			bc := c * ix.m
			var skip bool
			if capped {
				skip = ix.probe(bp, bc, int(ix.nearest[c]), bd) ||
					ix.probe(bp, bc, int(ix.nearest[p]), bd) ||
					ix.probe(bp, bc, 1, bd) ||
					ix.probe(bp, bc, 2, bd)
			} else {
				for a := 0; a < ix.m; a++ {
					if ix.probe(bp, bc, a, bd) {
						skip = true
						break
					}
				}
			}
			if skip {
				pruned++
				continue
			}
		}
		scanned++
		if d := ix.S.Dist(p, c); d < bd {
			best, bd = c, d
		}
	}
	ix.scanned.Add(int64(scanned))
	ix.pruned.Add(int64(pruned))
	return best, bd
}

// Stats implements Oracle, merging the wrapped cache's traffic (when the
// wrapped space is itself an Oracle) with the index's scan counters.
func (ix *Index) Stats() OracleStats {
	var st OracleStats
	if o, oko := ix.S.(Oracle); oko {
		st = o.Stats()
	}
	st.Scanned += ix.scanned.Load()
	st.Pruned += ix.pruned.Load()
	st.Pivots = ix.m
	st.Indexed = ix.ok
	return st
}

// IndexSpace wraps s in a pivot index when enable is set; otherwise returns
// s unchanged. The one index policy of the repository: every site half
// (core, uncertain, central, bench) builds its index through this call,
// one-shot runs and the job server's shards alike.
//
// A memoized space is served unindexed: behind a DistCache every repeat
// distance is a cached read, so a prune saves almost nothing while the
// build spends N·m real evaluations — the index pays exactly where
// CacheSpace declines to memoize (large instances that recompute) or where
// the metric itself is expensive (collapsed uncertain oracles).
func IndexSpace(s Space, enable bool, pivots int) Space {
	if !enable {
		return s
	}
	if _, okc := s.(*DistCache); okc {
		return s
	}
	return NewIndex(s, IndexOptions{Pivots: pivots})
}

// PruneCost on SelfCosts delegates to the wrapped space's pruner, if any.
func (sc SelfCosts) PruneCost(client, facility int, thresh float64) bool {
	if p, okp := sc.S.(DistPruner); okp {
		return p.PruneDist(client, facility, thresh)
	}
	return false
}

// PruneCost on Squared: Cost = d², and squaring is monotone on nonnegative
// distances, so d² >= thresh ⟸ d >= √thresh. The threshold is rounded one
// ulp up so the float square root can never under-demand the wrapped bound.
func (s Squared) PruneCost(client, facility int, thresh float64) bool {
	p, okp := s.C.(CostPruner)
	if !okp {
		return false
	}
	if thresh <= 0 {
		return p.PruneCost(client, facility, 0)
	}
	return p.PruneCost(client, facility, math.Nextafter(math.Sqrt(thresh), math.Inf(1)))
}

// PruneCost on SubCosts remaps the client index.
func (s SubCosts) PruneCost(client, facility int, thresh float64) bool {
	if p, okp := s.C.(CostPruner); okp {
		return p.PruneCost(s.ClientIdx[client], facility, thresh)
	}
	return false
}

// PruneCost on FacilitySubset remaps the facility index.
func (s FacilitySubset) PruneCost(client, facility int, thresh float64) bool {
	if p, okp := s.C.(CostPruner); okp {
		return p.PruneCost(client, s.FacIdx[facility], thresh)
	}
	return false
}

// CostPrunerOf returns c's pruning hook, or nil. Solver hot loops hoist this
// type assertion out of their scans. The common wrappers are unwrapped: when
// the underlying space cannot prune anyway, nil is returned so the hot loops
// skip the per-pair calls that would always decline.
func CostPrunerOf(c Costs) CostPruner {
	switch v := c.(type) {
	case SelfCosts:
		if _, okp := v.S.(DistPruner); !okp {
			return nil
		}
	case Squared:
		if CostPrunerOf(v.C) == nil {
			return nil
		}
	}
	p, _ := c.(CostPruner)
	return p
}

// DistPrunerOf returns s's pruning hook, or nil.
func DistPrunerOf(s Space) DistPruner {
	p, _ := s.(DistPruner)
	return p
}
