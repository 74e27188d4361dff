// Package stream implements the one-pass partial clustering sketch in the
// style of Guha, Meyerson, Mishra, Motwani, O'Callaghan [14] — the result
// the paper builds on ("we observe that results from streaming algorithms
// [14] can in fact provide us 1-round O(1)-approximation algorithms") and
// whose combining theorem (Theorem 2.1) underlies every precluster-and-
// merge step in this repository.
//
// The sketch buffers points; when the buffer fills it preclusters the
// buffered weighted points into 2k centers plus t carried outliers and
// keeps only those. Memory stays O(chunk + k + t) while the stream is
// arbitrarily long; Theorem 2.1/Corollary 2.2 bound the quality loss per
// compression level.
package stream

import (
	"fmt"
	"math"

	"dpc/internal/kmedian"
	"dpc/internal/metric"
)

// Config tunes the sketch.
type Config struct {
	K int // centers of the final solution
	T int // outliers of the final solution
	// Chunk is the buffer capacity before a compression fires.
	// Default max(512, 4*(2K+T)).
	Chunk int
	Opts  kmedian.Options // Opts.Algo picks the engine
	// Means switches connection costs to squared distances.
	Means bool
}

func (c Config) withDefaults() Config {
	if c.Chunk == 0 {
		c.Chunk = 4 * (2*c.K + c.T)
		if c.Chunk < 512 {
			c.Chunk = 512
		}
	}
	return c
}

// Sketch is a one-pass partial k-median/means summarizer.
type Sketch struct {
	cfg Config
	pts []metric.Point
	w   []float64
	// compressions counts how many times the buffer was folded; the
	// approximation constant grows geometrically with it (Theorem 2.1
	// applied per level), matching [14].
	compressions int
	n            int // points consumed
}

// New creates a sketch. K must be positive, and 4(2K+T), the default
// chunk, must fit in an int: past that the chunk arithmetic wraps, and a
// sketch with a wrapped chunk would keep every point and solve on every
// Add.
func New(cfg Config) (*Sketch, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("stream: K = %d", cfg.K)
	}
	if cfg.T < 0 {
		return nil, fmt.Errorf("stream: T = %d", cfg.T)
	}
	if cfg.K > math.MaxInt/8 || cfg.T > math.MaxInt/4-2*cfg.K {
		return nil, fmt.Errorf("stream: K = %d, T = %d: 4(2k+t) overflows", cfg.K, cfg.T)
	}
	cfg = cfg.withDefaults()
	if cfg.Chunk < 2*(2*cfg.K+cfg.T) {
		return nil, fmt.Errorf("stream: chunk %d too small for 2k+t = %d", cfg.Chunk, 2*cfg.K+cfg.T)
	}
	return &Sketch{cfg: cfg}, nil
}

// Add consumes one stream point.
func (s *Sketch) Add(p metric.Point) {
	s.pts = append(s.pts, p)
	s.w = append(s.w, 1)
	s.n++
	if len(s.pts) >= s.cfg.Chunk {
		s.compress()
	}
}

// AddWeighted consumes a weighted point (e.g. when chaining sketches).
func (s *Sketch) AddWeighted(p metric.Point, weight float64) {
	s.pts = append(s.pts, p)
	s.w = append(s.w, weight)
	s.n++
	if len(s.pts) >= s.cfg.Chunk {
		s.compress()
	}
}

// Size returns the current summary size (buffered weighted points).
func (s *Sketch) Size() int { return len(s.pts) }

// N returns how many stream points were consumed.
func (s *Sketch) N() int { return s.n }

// Compressions returns how many buffer folds have happened.
func (s *Sketch) Compressions() int { return s.compressions }

// compress folds the buffer into 2k weighted centers plus up to t carried
// outlier points (Remark 1: nothing is silently dropped — outliers stay in
// the summary as unit-weight points for the final decision).
func (s *Sketch) compress() {
	costs := s.costs()
	opts := s.cfg.Opts
	opts.Seed += int64(s.compressions) * 7919
	sol := kmedian.Solve(costs, s.w, 2*s.cfg.K, float64(s.cfg.T), opts)
	if len(sol.Centers) == 0 {
		return // nothing sensible to do; keep buffer (can only happen for tiny buffers)
	}
	var npts []metric.Point
	var nw []float64
	idx := make(map[int]int, len(sol.Centers))
	for _, f := range sol.Centers {
		idx[f] = len(npts)
		npts = append(npts, s.pts[f])
		nw = append(nw, 0)
	}
	for j, f := range sol.Assign {
		if f < 0 {
			continue
		}
		if inW := s.w[j] - sol.DroppedWeight[j]; inW > 0 {
			nw[idx[f]] += inW
		}
	}
	for j, dw := range sol.DroppedWeight {
		if dw > 0 {
			npts = append(npts, s.pts[j])
			nw = append(nw, dw)
		}
	}
	s.pts, s.w = npts, nw
	s.compressions++
}

func (s *Sketch) costs() metric.Costs {
	base := metric.NewPoints(s.pts)
	if s.cfg.Means {
		return metric.Squared{C: base}
	}
	return base
}

// Result is the final solution extracted from a sketch.
type Result struct {
	Centers []metric.Point
	// SummaryCost is the (k,t) partial cost on the weighted summary (not
	// the true stream cost; evaluate externally if the stream is stored).
	SummaryCost  float64
	Compressions int
}

// Finish solves (k,t) on the remaining summary and returns the centers.
// The sketch remains usable (more points may be added afterwards).
func (s *Sketch) Finish() Result {
	return s.Query(s.cfg.K, s.cfg.T)
}

// Query solves (k', t') on the current summary without consuming it — the
// incremental-service entry point: one sketch absorbs a continuous ingest
// while answering many (k, t) queries against the same summary, each a
// solve over the O(chunk + k + t) weighted points rather than the full
// stream. k' and t' need not match the configured K and T (the summary's
// 2K centers + T carried outliers preserve cost for any k' <= K, t' <= T by
// Theorem 2.1; larger queries still answer, with weaker guarantees). The
// sketch is unchanged afterwards and more points may be added.
func (s *Sketch) Query(k, t int) Result {
	if k <= 0 {
		k = s.cfg.K
	}
	if t < 0 {
		t = s.cfg.T
	}
	costs := s.costs()
	opts := s.cfg.Opts
	opts.Seed += 104729
	sol := kmedian.Solve(costs, s.w, k, float64(t), opts)
	centers := make([]metric.Point, len(sol.Centers))
	for i, f := range sol.Centers {
		centers[i] = s.pts[f].Clone()
	}
	return Result{Centers: centers, SummaryCost: sol.Cost, Compressions: s.compressions}
}

// Summary returns a copy of the current weighted summary (points and
// weights), so a caller can evaluate query results against the sketch's
// view of the stream without reaching into its buffers.
func (s *Sketch) Summary() ([]metric.Point, []float64) {
	pts := make([]metric.Point, len(s.pts))
	for i, p := range s.pts {
		pts[i] = p.Clone()
	}
	w := make([]float64, len(s.w))
	copy(w, s.w)
	return pts, w
}

// Config returns the sketch's (defaulted) configuration.
func (s *Sketch) Config() Config { return s.cfg }

// State is a sketch's complete internal state in exportable form — the
// weighted summary buffer plus the counters that make future
// compressions deterministic. A sketch restored via LoadState answers
// every future Add/Query exactly as the original would have: compression
// seeds derive from Compressions, so the (pts, w, compressions, n)
// tuple is the whole trajectory-relevant state. Dim is the dimension every
// summary point has (0 while the summary is empty).
type State struct {
	Points       []metric.Point
	Weights      []float64
	Dim          int
	Compressions int
	N            int
}

// State exports a deep copy of the sketch's internal state (snapshot
// checkpoints in the serving layer persist this instead of the raw
// stream, which the sketch has already forgotten).
func (s *Sketch) State() State {
	pts, w := s.Summary()
	st := State{Points: pts, Weights: w, Compressions: s.compressions, N: s.n}
	if len(pts) > 0 {
		st.Dim = pts[0].Dim()
	}
	return st
}

// LoadState replaces the sketch's internal state with st (deep-copied).
// The sketch must have been created with the same Config for the restore
// to be exact. A state no sketch can be in — one weight per point, every
// point of dimension Dim, weights finite and non-negative, counters
// non-negative, no more summary points than points consumed — is an error,
// and leaves the sketch unchanged.
func (s *Sketch) LoadState(st State) error {
	if err := st.validate(); err != nil {
		return err
	}
	s.pts = make([]metric.Point, len(st.Points))
	for i, p := range st.Points {
		s.pts[i] = p.Clone()
	}
	s.w = append([]float64(nil), st.Weights...)
	s.compressions = st.Compressions
	s.n = st.N
	return nil
}

func (st State) validate() error {
	switch {
	case len(st.Points) != len(st.Weights):
		return fmt.Errorf("stream: state has %d points and %d weights", len(st.Points), len(st.Weights))
	case st.Dim < 0 || st.Compressions < 0 || st.N < 0:
		return fmt.Errorf("stream: state has a negative counter (dim %d, compressions %d, n %d)", st.Dim, st.Compressions, st.N)
	case len(st.Points) > st.N:
		return fmt.Errorf("stream: state holds %d summary points but consumed only %d", len(st.Points), st.N)
	case len(st.Points) > 0 && st.Dim == 0:
		return fmt.Errorf("stream: state has %d points of dimension 0", len(st.Points))
	}
	for i, p := range st.Points {
		if p.Dim() != st.Dim {
			return fmt.Errorf("stream: state point %d has dim %d, want %d", i, p.Dim(), st.Dim)
		}
		if w := st.Weights[i]; !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("stream: state weight %d is %g", i, w)
		}
	}
	return nil
}
