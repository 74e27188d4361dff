package kcenter

import (
	"math/rand"
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
