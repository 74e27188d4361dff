// Package geom implements the light computational-geometry substrate the
// paper relies on: the lower convex hull of a (outlier budget, cost) point
// set and the induced piecewise-linear convex function f_i of Algorithm 1
// (Line 4), together with its marginal-saving slopes
// l(i,q) = f_i(q-1) - f_i(q) used by the budget-allocation protocol.
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Vertex is a sample (Q, C) of a local cost curve: C is the cost of the best
// local solution found when Q outliers may be ignored.
type Vertex struct {
	Q int
	C float64
}

// ConvexFn is a non-increasing piecewise-linear convex function on the
// integer domain {0, 1, ..., T()} represented by the vertices of its lower
// convex hull. It is the object each site ships to the coordinator in
// Round 1 of Algorithms 1 and 2 (O(log t) vertices instead of t samples).
type ConvexFn struct {
	v []Vertex // sorted by Q, first Q = 0, strictly convex corners
}

// NewConvexFn builds the lower convex hull of the given cost samples.
//
// The samples are first sorted by Q, deduplicated (keeping the cheapest cost
// per Q), and clamped to be non-increasing in Q — allowing more outliers can
// never cost more, but heuristic local solvers occasionally return slightly
// non-monotone curves; the clamp is the running minimum from the left, which
// only ever replaces a sample by an achievable cost (use the solution of a
// smaller budget under a larger budget). The hull is then the classic
// monotone-chain lower hull. A sample at Q = 0 is required (the paper's grid
// I always contains 0 and t).
func NewConvexFn(samples []Vertex) (ConvexFn, error) {
	if len(samples) == 0 {
		return ConvexFn{}, fmt.Errorf("geom: no samples")
	}
	s := make([]Vertex, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Q != s[j].Q {
			return s[i].Q < s[j].Q
		}
		return s[i].C < s[j].C
	})
	// Deduplicate by Q keeping the smaller C (sorted order guarantees it).
	out := s[:1]
	for _, x := range s[1:] {
		if x.Q == out[len(out)-1].Q {
			continue
		}
		out = append(out, x)
	}
	if out[0].Q != 0 {
		return ConvexFn{}, fmt.Errorf("geom: missing sample at Q=0 (first is Q=%d)", out[0].Q)
	}
	for _, x := range out {
		if x.Q < 0 || x.C < 0 {
			return ConvexFn{}, fmt.Errorf("geom: negative sample (%d, %g)", x.Q, x.C)
		}
	}
	// Clamp to non-increasing.
	for i := 1; i < len(out); i++ {
		if out[i].C > out[i-1].C {
			out[i].C = out[i-1].C
		}
	}
	// Monotone-chain lower hull over (Q, C).
	hull := make([]Vertex, 0, len(out))
	for _, p := range out {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return ConvexFn{v: hull}, nil
}

// cross returns the z-component of (b-a) x (c-a); <= 0 means b is on or
// above the segment a-c, i.e. not a strict lower-hull corner.
func cross(a, b, c Vertex) float64 {
	return float64(b.Q-a.Q)*(c.C-a.C) - (b.C-a.C)*float64(c.Q-a.Q)
}

// T returns the right end of the domain (the largest sampled budget).
func (f ConvexFn) T() int {
	if len(f.v) == 0 {
		return 0
	}
	return f.v[len(f.v)-1].Q
}

// Vertices returns the hull vertices (shared slice; do not mutate).
func (f ConvexFn) Vertices() []Vertex { return f.v }

// Eval returns f(q), linearly interpolating between hull vertices and
// clamping q into [0, T].
func (f ConvexFn) Eval(q int) float64 {
	if len(f.v) == 0 {
		return 0
	}
	if q <= f.v[0].Q {
		return f.v[0].C
	}
	if q >= f.T() {
		return f.v[len(f.v)-1].C
	}
	// Find segment containing q: first vertex with Q >= q.
	i := sort.Search(len(f.v), func(i int) bool { return f.v[i].Q >= q })
	a, b := f.v[i-1], f.v[i]
	frac := float64(q-a.Q) / float64(b.Q-a.Q)
	return a.C + frac*(b.C-a.C)
}

// Slope returns l(q) = f(q-1) - f(q), the marginal saving of allowing the
// q-th outlier, for q in [1, T]. Outside the domain it returns 0. Convexity
// of f makes Slope non-increasing in q, which is what the allocation
// protocol (Lemma 3.3) relies on.
func (f ConvexFn) Slope(q int) float64 {
	if q < 1 || q > f.T() {
		return 0
	}
	return f.Eval(q-1) - f.Eval(q)
}

// SlopeRun is a maximal run of equal slopes: l(q) = S for q in [Lo, Hi].
type SlopeRun struct {
	S      float64
	Lo, Hi int
}

// Runs returns the slope runs of f in decreasing-slope (= increasing q)
// order; one run per hull segment. Empty if the domain is a single point.
func (f ConvexFn) Runs() []SlopeRun {
	runs := make([]SlopeRun, 0, len(f.v)-1)
	for i := 1; i < len(f.v); i++ {
		a, b := f.v[i-1], f.v[i]
		s := (a.C - b.C) / float64(b.Q-a.Q)
		runs = append(runs, SlopeRun{S: s, Lo: a.Q + 1, Hi: b.Q})
	}
	return runs
}

// NextVertex returns the smallest hull-vertex budget >= q (used for the
// exceptional site i0 in Line 13 of Algorithm 1: round the pivot budget up
// to the next hull vertex, where the hull cost is achievable). If q exceeds
// T, it returns T.
func (f ConvexFn) NextVertex(q int) int {
	for _, x := range f.v {
		if x.Q >= q {
			return x.Q
		}
	}
	return f.T()
}

// PrevVertex returns the largest hull-vertex budget <= q (Line 15 of the
// modified Algorithm 1). If q is below the first vertex, it returns 0.
func (f ConvexFn) PrevVertex(q int) int {
	best := 0
	for _, x := range f.v {
		if x.Q <= q {
			best = x.Q
		}
	}
	return best
}

// IsVertex reports whether q is a hull vertex, i.e. whether
// f(q) equals the original (clamped) sample cost there.
func (f ConvexFn) IsVertex(q int) bool {
	i := sort.Search(len(f.v), func(i int) bool { return f.v[i].Q >= q })
	return i < len(f.v) && f.v[i].Q == q
}

// Grid returns the paper's geometric budget grid
// I = {floor(base^r) : 1 <= r <= floor(log_base t)} + {0, t}
// (Line 2 of Algorithm 1), sorted and deduplicated. base must be a finite
// number > 1; any other base (NaN and ±Inf included) falls back to 2. For
// t = 0 it returns {0}. Any float base returns promptly: HullBase reaches
// here from a decoded job frame.
func Grid(t int, base float64) []int {
	if t <= 0 {
		return []int{0}
	}
	if !(base > 1) || math.IsInf(base, 1) {
		base = 2
	}
	// int(x) <= t exactly when x < t+1 (t < 2^53). The float comparison
	// also ends the walk on a product at or past 2^63, where int(x) is
	// undefined (MinInt64 on amd64, which never exceeds t).
	end := float64(t) + 1
	if base-1 < 1/end {
		// Below t+1 every step grows x by less than one, so the floors of
		// the powers are every integer up to t; walking there would take
		// about ln(t)/(base-1) steps.
		grid := make([]int, t+1)
		for q := range grid {
			grid[q] = q
		}
		return grid
	}
	set := map[int]bool{0: true, t: true}
	for x := base; x < end; x *= base {
		set[int(x)] = true
	}
	grid := make([]int, 0, len(set))
	for q := range set {
		grid = append(grid, q)
	}
	sort.Ints(grid)
	return grid
}
