package kcenter

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"dpc/internal/metric"
)

func parityPoints(seed int64, n int) []metric.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = metric.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	return pts
}

// TestGonzalezMatchesReference pins the parallel farthest-first traversal
// (blocked dmin update + first-max fold) to the seed sequential scan.
func TestGonzalezMatchesReference(t *testing.T) {
	for _, n := range []int{5, 120, 700} {
		sp := metric.NewPoints(parityPoints(int64(n), n))
		ref := GonzalezOpt(sp, n/2+2, 0, Opt{Reference: true})
		for _, workers := range []int{1, 3, 8} {
			got := GonzalezOpt(metric.NewDistCache(sp), n/2+2, 0, Opt{Workers: workers})
			if len(got.Order) != len(ref.Order) {
				t.Fatalf("n=%d workers=%d: traversal lengths differ", n, workers)
			}
			for i := range ref.Order {
				if got.Order[i] != ref.Order[i] || got.Radii[i] != ref.Radii[i] {
					t.Fatalf("n=%d workers=%d: traversal diverges at %d: (%d,%v) vs (%d,%v)",
						n, workers, i, got.Order[i], got.Radii[i], ref.Order[i], ref.Radii[i])
				}
			}
		}
	}
}

// TestAssignPrefixMatchesReference pins the fast engine's prefix
// assignment, read off the traversal's record, to the reference scan: at
// every prefix r = 1..depth, under unit and fractional weights, on a shard
// of two blocks with duplicate points and on one with a +Inf coordinate
// (whose distances are +Inf and NaN), the assignment, counts and maxDist
// are the scan's bit for bit.
func TestAssignPrefixMatchesReference(t *testing.T) {
	dup := parityPoints(4, 600)
	dup = append(dup, dup[:50]...)
	withInf := append(parityPoints(6, 80), metric.Point{math.Inf(1), 0})
	for _, pts := range [][]metric.Point{dup, withInf} {
		sp := metric.NewPoints(pts)
		n := sp.N()
		frac := make([]float64, n)
		rng := rand.New(rand.NewSource(5))
		for i := range frac {
			frac[i] = rng.Float64() * 2
		}
		for _, workers := range []int{1, 4} {
			tr := GonzalezOpt(sp, 40, 0, Opt{Workers: workers})
			for r := 1; r <= len(tr.Order); r++ {
				for _, w := range [][]float64{nil, frac} {
					refA, refC, refM := tr.AssignPrefixOpt(sp, r, w, Opt{Reference: true})
					a, c, m := tr.AssignPrefixOpt(sp, r, w, Opt{Workers: workers})
					label := fmt.Sprintf("n=%d workers=%d r=%d weighted=%v", n, workers, r, w != nil)
					if math.Float64bits(m) != math.Float64bits(refM) {
						t.Fatalf("%s: maxDist %v != %v", label, m, refM)
					}
					if !slices.Equal(a, refA) {
						t.Fatalf("%s: assignments differ", label)
					}
					for i := range refC {
						if math.Float64bits(c[i]) != math.Float64bits(refC[i]) {
							t.Fatalf("%s: counts differ at %d: %v vs %v", label, i, c[i], refC[i])
						}
					}
				}
			}
		}
	}
}

// countingSpace counts the distances asked of it.
type countingSpace struct {
	metric.Space
	calls atomic.Int64
}

func (c *countingSpace) Dist(i, j int) float64 {
	c.calls.Add(1)
	return c.Space.Dist(i, j)
}

// TestAssignPrefixAsksNoDistance: a fast-engine traversal, fresh or a
// TraversalMemo's prefix, answers every prefix assignment from its record
// without asking its space for a distance; a reference-engine traversal
// still scans.
func TestAssignPrefixAsksNoDistance(t *testing.T) {
	sp := &countingSpace{Space: metric.NewPoints(parityPoints(8, 300))}
	var tm TraversalMemo
	for _, tr := range []Traversal{GonzalezOpt(sp, 30, 0, Opt{}), tm.Prefix(sp, 30, Opt{}), tm.Prefix(sp, 12, Opt{})} {
		sp.calls.Store(0)
		for r := 1; r <= len(tr.Order); r++ {
			tr.AssignPrefixOpt(sp, r, nil, Opt{})
		}
		if n := sp.calls.Load(); n != 0 {
			t.Fatalf("a recorded traversal's prefix assignments asked %d distances, want 0", n)
		}
	}
	ref := GonzalezOpt(sp, 30, 0, Opt{Reference: true})
	sp.calls.Store(0)
	ref.AssignPrefixOpt(sp, 30, nil, Opt{})
	if n := sp.calls.Load(); n != 300*30 {
		t.Fatalf("a reference traversal's assignment asked %d distances, want %d", n, 300*30)
	}
}

// TestEvalMaxMatchesReference pins the parallel objective evaluation.
func TestEvalMaxMatchesReference(t *testing.T) {
	sp := metric.NewPoints(parityPoints(13, 800))
	centers := []int{1, 77, 400}
	ref := EvalMaxOpt(sp, nil, centers, 17, Opt{Reference: true})
	for _, workers := range []int{1, 6} {
		if got := EvalMaxOpt(sp, nil, centers, 17, Opt{Workers: workers}); got != ref {
			t.Fatalf("workers=%d: EvalMax %v != %v", workers, got, ref)
		}
	}
}

// TestTraversalMemoPrefixes: every prefix a TraversalMemo hands out is the
// traversal GonzalezOpt computes fresh to that depth, bit for bit, on a
// grid full of distance ties: the same Order and Radii, and the same
// assignment and counts at every prefix of it (the memo's record may hold
// more steps than the prefix); the memo grows only when asked deeper than
// it holds and never past the shard, and a handed-out prefix has no spare
// capacity an append could write into the memo through.
func TestTraversalMemoPrefixes(t *testing.T) {
	var pts []metric.Point
	for x := range 12 {
		for y := range 12 {
			pts = append(pts, metric.Point{float64(x), float64(y)})
		}
	}
	sp := metric.NewPoints(pts)
	n := sp.N()
	var tm TraversalMemo
	depth := 0
	for _, m := range []int{0, 10, 60, 132, 10, 140, 7, n + 5, n, 1, -1} {
		got := tm.Prefix(sp, m, Opt{Workers: 2})
		want := GonzalezOpt(sp, m, 0, Opt{})
		if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Radii, want.Radii) {
			t.Fatalf("depth %d: memo prefix %v %v, fresh traversal %v %v", m, got.Order, got.Radii, want.Order, want.Radii)
		}
		for r := 1; r <= len(want.Order); r++ {
			ga, gc, gm := got.AssignPrefix(sp, r, nil)
			wa, wc, wm := want.AssignPrefix(sp, r, nil)
			if !slices.Equal(ga, wa) || !slices.Equal(gc, wc) || gm != wm {
				t.Fatalf("depth %d: the memo prefix's assignment at r=%d differs from the fresh traversal's", m, r)
			}
		}
		if m > depth && depth < n {
			depth = min(m, n)
		}
		if tm.Depth() != depth {
			t.Fatalf("after depth %d the memo holds %d points, want %d", m, tm.Depth(), depth)
		}
		if cap(got.Order) != len(got.Order) || cap(got.Radii) != len(got.Radii) {
			t.Fatalf("depth %d: a prefix with spare capacity lets an append write into the memo", m)
		}
	}
}
