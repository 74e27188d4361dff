package kcenter

import (
	"math/rand"
	"reflect"
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

// TestAssignPrefixMatchesReference pins the parallel prefix assignment.
func TestAssignPrefixMatchesReference(t *testing.T) {
	sp := metric.NewPoints(parityPoints(4, 600))
	tr := Gonzalez(sp, 40, 0)
	w := make([]float64, 600)
	rng := rand.New(rand.NewSource(5))
	for i := range w {
		w[i] = rng.Float64() * 2
	}
	refA, refC, refM := tr.AssignPrefixOpt(sp, 25, w, Opt{Reference: true})
	for _, workers := range []int{1, 4} {
		a, c, m := tr.AssignPrefixOpt(sp, 25, w, Opt{Workers: workers})
		if m != refM {
			t.Fatalf("workers=%d: maxDist %v != %v", workers, m, refM)
		}
		for i := range refA {
			if a[i] != refA[i] {
				t.Fatalf("workers=%d: assign differs at %d", workers, i)
			}
		}
		for i := range refC {
			if c[i] != refC[i] {
				t.Fatalf("workers=%d: counts differ at %d: %v vs %v", workers, i, c[i], refC[i])
			}
		}
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
// grid full of distance ties; the memo grows only when asked deeper than it
// holds and never past the shard, and a handed-out prefix has no spare
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
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("depth %d: memo prefix %v, fresh traversal %v", m, got, want)
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
