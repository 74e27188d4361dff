// Package central implements Section 3.1: centralized (k,t)-median/means
// solvers obtained by *sequentially simulating* the distributed algorithm.
//
// Level 0 is the direct Theorem 3.1 engine with Otilde(n^2) behaviour.
// Level j >= 1 splits the input into s = n^{e/(e+1)} chunks (e = runtime
// exponent of level j-1; Lemma 3.9's balancing n^{1+a0} = s^{2+a0}),
// preclusters every chunk with the level j-1 solver on the geometric budget
// grid, allocates the outlier budget with the rank-2q pivot, and solves the
// induced weighted instance directly. One level yields the Otilde(t^2 +
// n^{4/3} k^2) algorithm; repeating drives the exponent to 1+alpha
// (Theorem 3.10) at the price of a (c0*gamma)^j approximation factor.
package central

import (
	"math"
	"sort"
	"time"

	"dpc/internal/alloc"
	"dpc/internal/core"
	"dpc/internal/geom"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// Config parameterizes the centralized solver.
type Config struct {
	K int
	T int
	// Levels is the recursion depth: 0 = direct quadratic Theorem 3.1
	// solve, 1 = one simulation level (exponent 4/3), 2 = exponent 8/7, ...
	Levels int
	// Eps is the top-level outlier slack; the returned solution may drop
	// (1+Eps)t points (Theorem 3.10 reports sol(A, k, 2t)). Default 1.
	Eps float64
	// Objective is Median or Means (core.Center is not supported here).
	Objective core.Objective
	Opts      kmedian.Options // every solve's options, and the run's one set of engine knobs
	// MinChunk bottoms out the recursion: inputs smaller than this are
	// solved directly. Default 64.
	MinChunk int
	// HullBase is the budget grid base. Default 2.
	HullBase float64
}

// engineOpts returns the per-solve options. Unlike the distributed package,
// the centralized engine defaults to scanning ALL facilities per local
// search round (SampleFacilities = -1): that is the faithful
// Otilde(n^2)-time Theorem 3.1 engine whose quadratic growth the
// simulation of Lemma 3.9 is designed to break.
func (c Config) engineOpts() kmedian.Options {
	opts := c.Opts
	if opts.SampleFacilities == 0 {
		opts.SampleFacilities = -1
	}
	return opts
}

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 1
	}
	c.Opts.Options = c.Opts.Options.Normalize()
	if c.MinChunk == 0 {
		c.MinChunk = 64
	}
	if c.HullBase == 0 {
		c.HullBase = 2
	}
	return c
}

// Solution is the centralized result.
type Solution struct {
	Centers       []metric.Point
	Cost          float64 // evaluated at OutlierBudget on the input
	OutlierBudget float64
	// TopChunks is the number of simulated sites at the outermost level
	// (0 for a direct solve).
	TopChunks int
	Elapsed   time.Duration
}

// PartialMedian solves the centralized (k,t)-median/means problem at the
// configured simulation depth.
func PartialMedian(pts []metric.Point, cfg Config) Solution {
	cfg = cfg.withDefaults()
	t0 := time.Now() //dpc:nondeterministic-ok wall-clock feeds the Elapsed diagnostic only, never centers or costs
	pre, chunks := solveLevel(pts, cfg.K, cfg.T, cfg.Levels, cfg)
	budget := (1 + cfg.Eps) * float64(cfg.T)
	sol := Solution{
		Centers:       pre.centers,
		Cost:          core.Evaluate(pts, pre.centers, budget, cfg.Objective),
		OutlierBudget: budget,
		TopChunks:     chunks,
		Elapsed:       time.Since(t0),
	}
	return sol
}

// precluster is the aggregated output of one (k, q) sub-solve: centers with
// attached inlier weight plus the q designated outlier points.
type precluster struct {
	centers  []metric.Point
	weights  []float64
	outliers []metric.Point
	cost     float64
}

// runtimeExponent returns e_j: e_0 = 2, e_j = 2 e_{j-1} / (e_{j-1} + 1).
func runtimeExponent(level int) float64 {
	e := 2.0
	for j := 0; j < level; j++ {
		e = 2 * e / (e + 1)
	}
	return e
}

// chunkCount returns s = ceil(n^{e/(e+1)}) for the level's balancing, kept
// within [2, n/2].
func chunkCount(n, level int) int {
	e := runtimeExponent(level - 1)
	s := int(math.Ceil(math.Pow(float64(n), e/(e+1))))
	if s < 2 {
		s = 2
	}
	if s > n/2 {
		s = n / 2
	}
	return s
}

// solveLevel returns the (k, q) preclustering of pts at the given recursion
// level, and the chunk count used (0 when solved directly).
func solveLevel(pts []metric.Point, k, q, level int, cfg Config) (precluster, int) {
	n := len(pts)
	if level <= 0 || n <= cfg.MinChunk || n <= 4*(k+q) {
		return directSolve(pts, k, q, cfg), 0
	}
	s := chunkCount(n, level)
	chunks := make([][]metric.Point, s)
	for i, p := range pts {
		chunks[i%s] = append(chunks[i%s], p)
	}

	// Per-chunk cost curves on the geometric budget grid (with caching so
	// the post-allocation fetch reuses grid solves).
	type chunkState struct {
		cache map[int]precluster
		fn    geom.ConvexFn
	}
	states := make([]*chunkState, s)
	for i, chunk := range chunks {
		st := &chunkState{cache: make(map[int]precluster)}
		qcap := q
		if qcap >= len(chunk) {
			qcap = len(chunk) - 1
		}
		samples := make([]geom.Vertex, 0, 8)
		for _, g := range geom.Grid(qcap, cfg.HullBase) {
			sub, _ := solveLevel(chunk, 2*k, g, level-1, cfg)
			st.cache[g] = sub
			samples = append(samples, geom.Vertex{Q: g, C: sub.cost})
		}
		fn, err := geom.NewConvexFn(samples)
		if err != nil {
			panic(err)
		}
		st.fn = fn
		states[i] = st
	}

	fns := make([]geom.ConvexFn, s)
	for i, st := range states {
		fns[i] = st.fn
	}
	pivot, ts := alloc.Allocate(fns, 2*q)

	// Union of chunk preclusterings at the allocated budgets.
	var upts []metric.Point
	var uw []float64
	for i, st := range states {
		b := ts[i]
		if i == pivot.I0 {
			b = st.fn.NextVertex(pivot.Q0)
		}
		sub, ok := st.cache[b]
		if !ok {
			sub, _ = solveLevel(chunks[i], 2*k, b, level-1, cfg)
		}
		for c := range sub.centers {
			upts = append(upts, sub.centers[c])
			uw = append(uw, sub.weights[c])
		}
		for _, o := range sub.outliers {
			upts = append(upts, o)
			uw = append(uw, 1)
		}
	}

	// Direct weighted solve on the induced instance, then re-aggregate
	// against the original points.
	opts := cfg.engineOpts()
	opts.Seed += int64(level) * 31337
	costs := weightedCosts(upts, cfg.Objective, opts)
	sol := kmedian.Solve(costs, uw, k, float64(q), opts)
	centers := make([]metric.Point, len(sol.Centers))
	for i, f := range sol.Centers {
		centers[i] = upts[f]
	}
	return aggregate(pts, centers, q, cfg.Objective), s
}

// directSolve is the level-0 engine.
func directSolve(pts []metric.Point, k, q int, cfg Config) precluster {
	opts := cfg.engineOpts()
	costs := weightedCosts(pts, cfg.Objective, opts)
	sol := kmedian.Solve(costs, nil, k, float64(q), opts)
	centers := make([]metric.Point, len(sol.Centers))
	for i, f := range sol.Centers {
		centers[i] = pts[f]
	}
	return aggregate(pts, centers, q, cfg.Objective)
}

// weightedCosts wraps points in the objective's cost oracle, memoized
// behind the distance cache when caching is on (opts normalized) and the
// instance is small enough for the cache to pay for itself.
func weightedCosts(pts []metric.Point, obj core.Objective, opts kmedian.Options) metric.Costs {
	var sp metric.Space = metric.NewPoints(pts)
	if !opts.NoCache {
		sp = metric.CacheSpace(sp)
	}
	c := metric.Costs(metric.SelfCosts{S: sp})
	if obj == core.Means {
		return metric.Squared{C: c}
	}
	return c
}

// aggregate attaches every input point to its nearest center, designates
// the q farthest points as outliers, and returns the weighted summary plus
// the partial cost.
func aggregate(pts []metric.Point, centers []metric.Point, q int, obj core.Objective) precluster {
	n := len(pts)
	dist := make([]float64, n)
	assign := make([]int, n)
	order := make([]int, n)
	for j, p := range pts {
		best, bd := -1, math.Inf(1)
		for c, cp := range centers {
			x := metric.L2(p, cp)
			if obj == core.Means {
				x = metric.SqL2(p, cp)
			}
			if x < bd {
				bd, best = x, c
			}
		}
		assign[j] = best
		dist[j] = bd
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return dist[order[a]] > dist[order[b]] })
	if q > n {
		q = n
	}
	out := precluster{
		centers: centers,
		weights: make([]float64, len(centers)),
	}
	dropped := make([]bool, n)
	for i := 0; i < q; i++ {
		j := order[i]
		dropped[j] = true
		out.outliers = append(out.outliers, pts[j])
	}
	for j := range pts {
		if dropped[j] {
			continue
		}
		out.weights[assign[j]]++
		out.cost += dist[j]
	}
	return out
}
