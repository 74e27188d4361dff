// Package central implements Section 3.1: centralized (k,t)-median/means
// solvers obtained by simulating the distributed algorithm.
//
// Level 0 is the direct Theorem 3.1 engine with Otilde(n^2) behaviour.
// Level j >= 1 splits the input into s = n^{e/(e+1)} chunks (e = runtime
// exponent of level j-1; Lemma 3.9's balancing n^{1+a0} = s^{2+a0}) and runs
// Algorithm 1 over them on the round skeleton of internal/protocol, as an
// in-process loopback fleet: every chunk is a protocol.Site whose cost curve
// and preclustering are level j-1 solves, the skeleton allocates the outlier
// budget with the rank-2q pivot, and a protocol.Reducer solves the induced
// weighted instance directly. One level yields the Otilde(t^2 + n^{4/3} k^2)
// algorithm; repeating drives the exponent to 1+alpha (Theorem 3.10) at the
// price of a (c0*gamma)^j approximation factor.
package central

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"dpc/internal/comm"
	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/par"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
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

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 1
	}
	c.Opts.Options = c.Opts.Options.Normalize()
	// Unlike the distributed package, every solve defaults to scanning ALL
	// facilities per local search round: that is the faithful
	// Otilde(n^2)-time Theorem 3.1 engine whose quadratic growth the
	// simulation of Lemma 3.9 is designed to break.
	if c.Opts.SampleFacilities == 0 {
		c.Opts.SampleFacilities = -1
	}
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
// configured simulation depth. Cancelling ctx stops it at the next simulated
// round or local-search step and returns ctx.Err().
func PartialMedian(ctx context.Context, pts []metric.Point, cfg Config) (Solution, error) {
	cfg = cfg.withDefaults()
	// Every solve at every level inherits ctx, as core.RunCtx's sites do.
	cfg.Opts.Ctx = ctx
	t0 := time.Now() //dpc:nondeterministic-ok wall-clock feeds the Elapsed diagnostic only, never centers or costs
	centers, chunks, err := solveLevel(pts, cfg.K, cfg.T, cfg.Levels, cfg)
	if err != nil {
		return Solution{}, err
	}
	budget := (1 + cfg.Eps) * float64(cfg.T)
	return Solution{
		Centers:       centers,
		Cost:          core.Evaluate(pts, centers, budget, cfg.Objective),
		OutlierBudget: budget,
		TopChunks:     chunks,
		Elapsed:       time.Since(t0),
	}, nil
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
	return min(max(int(math.Ceil(math.Pow(float64(n), e/(e+1)))), 2), n/2)
}

// solveLevel returns the centers of a (k, q) solve of pts at the given
// recursion level, and the chunk count used (0 when solved directly).
func solveLevel(pts []metric.Point, k, q, level int, cfg Config) ([]metric.Point, int, error) {
	n, ctx := len(pts), cfg.Opts.Ctx
	if level <= 0 || n <= cfg.MinChunk || n <= 4*(k+q) {
		// A preempted solve returns its best answer so far, maybe none.
		return solve(pts, nil, k, q, 0, cfg), 0, ctx.Err()
	}
	chunks := dataio.SplitRoundRobin(pts, chunkCount(n, level))
	p := protocol.Params{Name: "central", T: q, Rho: 2, HullBase: cfg.HullBase}
	errs := make([]error, len(chunks)) // chunk i's first failed sub-solve
	// The loopback fleet starts every chunk at once, and a chunk of a deeper
	// level starts a fleet of its own: at most Workers chunks of this fleet
	// compute at a time, so the goroutines and memory in flight grow with
	// the levels, not with the product of their chunk counts.
	slots := make(chan struct{}, par.Resolve(cfg.Opts.Workers))
	res, err := protocol.RunLocal(ctx, p, transport.KindLoopback, tree.Spec{}, chunks,
		func(i int) (transport.Handler, error) {
			h := protocol.Handler(p, i, &chunk{pts: chunks[i], k: 2 * k, level: level - 1, cfg: cfg,
				err: &errs[i], memo: make(map[int]summary)})
			return func(round int, in []byte) ([]byte, error) {
				slots <- struct{}{}
				defer func() { <-slots }()
				return h(round, in)
			}, nil
		},
		func(tr transport.Transport) (protocol.Result, error) {
			return protocol.Run(ctx, tr, p, &union{k: k, q: q, level: level, cfg: cfg,
				admit: protocol.Union{Squared: cfg.Objective == core.Means}})
		})
	if err == nil {
		err = errors.Join(errs...)
	}
	return res.Centers, len(chunks), err
}

// solve is the direct Theorem 3.1 solve of the instance pts (weights w, nil
// for unit), the seed offset by salt: the objective's cost oracle
// (core.CostsOver) under kmedian.Solve.
func solve(pts []metric.Point, w []float64, k, q int, salt int64, cfg Config) []metric.Point {
	opts := cfg.Opts
	opts.Seed += salt
	return protocol.PointsAt(pts, kmedian.Solve(core.CostsOver(pts, cfg.Objective), w, k, float64(q), opts).Centers)
}

// chunk is one simulated site of a level: its cost curve and preclustering
// are level j-1 solves of its points, memoized per budget, so the budget the
// allocation lands on reuses the grid solve.
type chunk struct {
	pts      []metric.Point
	k, level int
	cfg      Config
	err      *error
	memo     map[int]summary
}

// summary is one (k, b) sub-solve as a chunk ships it — the centers at their
// inlier counts, then the b farthest points as outliers at weight 1 — with
// its partial cost.
type summary struct {
	msg  comm.WeightedPointsMsg
	cost float64
}

// at returns the sub-solve at budget b. A failed one (a cancelled run, in
// practice) is kept as an empty summary and its error in c.err, which the
// level reports once the run is over.
func (c *chunk) at(b int) summary {
	s, ok := c.memo[b]
	if !ok {
		centers, _, err := solveLevel(c.pts, c.k, b, c.level, c.cfg)
		if err == nil {
			s = aggregate(c.pts, centers, b, c.cfg.Objective)
		} else if *c.err == nil {
			*c.err = err
		}
		c.memo[b] = s
	}
	return s
}

// Len implements protocol.Site.
func (c *chunk) Len() int { return len(c.pts) }

// Curve implements protocol.Site.
func (c *chunk) Curve(_ int, grid []int) []float64 {
	costs := make([]float64, len(grid))
	for i, b := range grid {
		costs[i] = c.at(b).cost
	}
	return costs
}

// Precluster implements protocol.Site.
func (c *chunk) Precluster(b protocol.Budget) comm.Payload { return c.at(b.T).msg }

// union is the coordinator half of a level: the chunks' summaries as one
// weighted instance, solved directly.
type union struct {
	k, q, level int
	cfg         Config
	admit       protocol.Union
	pts         []metric.Point
	w           []float64
}

// Add implements protocol.Reducer.
func (u *union) Add(b []byte) error {
	var m comm.WeightedPointsMsg
	if err := m.UnmarshalBinary(b); err != nil {
		return err
	}
	if err := u.admit.Admit(m.Pts, m.W, nil); err != nil {
		return err
	}
	u.pts, u.w = append(u.pts, m.Pts...), append(u.w, m.W...)
	return nil
}

// Solve implements protocol.Reducer.
func (u *union) Solve(res *protocol.Result) {
	res.Centers, res.CoordinatorClients = solve(u.pts, u.w, u.k, u.q, int64(u.level)*31337, u.cfg), len(u.pts)
}

// aggregate attaches every input point to its nearest center, designates
// the q farthest points as outliers, and returns the summary.
func aggregate(pts []metric.Point, centers []metric.Point, q int, obj core.Objective) summary {
	a := dataio.Assign(pts, centers, float64(q), obj == core.Means)
	s := summary{msg: comm.WeightedPointsMsg{Pts: slices.Clip(centers), W: make([]float64, len(centers))}}
	for j, c := range a.Center {
		if c >= 0 {
			s.msg.W[c]++
			s.cost += a.Dist[j]
		}
	}
	for _, j := range a.Outliers {
		s.msg.Pts = append(s.msg.Pts, pts[j])
		s.msg.W = append(s.msg.W, 1)
	}
	return s
}
