package metric

import (
	"fmt"
	"math"
)

// CheckReport is the typed result of a metric-axiom verification: the
// individual findings behind CheckMetric's error.
type CheckReport struct {
	// Points is the size of the checked space.
	Points int
	// Triples is the number of triangle triples examined (n³).
	Triples int

	// ZeroDiagonal: d(i,i) = 0 for every checked i.
	ZeroDiagonal bool
	// Symmetric: d(i,j) = d(j,i) for every checked pair.
	Symmetric bool
	// NonNegative: no checked distance was negative.
	NonNegative bool
	// TriangleOK: no checked triple violated d(i,j) <= d(i,k) + d(k,j)
	// beyond the floating-point slack.
	TriangleOK bool
	// MaxViolation is the worst relative triangle excess seen
	// ((d(i,j) − d(i,k) − d(k,j)) / (1 + d(i,j))), 0 when TriangleOK.
	MaxViolation float64

	// Detail describes the first failure in CheckMetric's words ("" when
	// the space checked out).
	Detail string
}

// OK reports whether every axiom held.
func (r CheckReport) OK() bool {
	return r.ZeroDiagonal && r.Symmetric && r.NonNegative && r.TriangleOK
}

// Err converts the report to an error (nil when OK) — the CheckMetric view.
func (r CheckReport) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("metric: %s", r.Detail)
}

// checkEps matches CheckMetric's historical floating-point slack.
const checkEps = 1e-9

// Check verifies the metric axioms exhaustively (O(n³) triangle triples) and
// returns the typed report. Intended for tests and small spaces.
func Check(s Space) CheckReport {
	r := checkBasics(s)
	n := s.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				r.checkTriple(s, i, j, k)
				r.Triples++
			}
		}
	}
	return r
}

// checkBasics runs the exhaustive diagonal/symmetry/sign phase.
func checkBasics(s Space) CheckReport {
	r := CheckReport{Points: s.N(), ZeroDiagonal: true, Symmetric: true, NonNegative: true, TriangleOK: true}
	n := s.N()
	for i := 0; i < n; i++ {
		r.checkDiag(s, i)
		for j := 0; j < n; j++ {
			r.checkPair(s, i, j)
		}
	}
	return r
}

func (r *CheckReport) checkDiag(s Space, i int) {
	if d := s.Dist(i, i); math.Abs(d) > checkEps && r.ZeroDiagonal {
		r.ZeroDiagonal = false
		r.fail("d(%d,%d)=%g, want 0", i, i, d)
	}
}

func (r *CheckReport) checkPair(s Space, i, j int) {
	dij, dji := s.Dist(i, j), s.Dist(j, i)
	if math.Abs(dij-dji) > checkEps*(1+math.Abs(dij)) && r.Symmetric {
		r.Symmetric = false
		r.fail("asymmetric d(%d,%d)=%g d(%d,%d)=%g", i, j, dij, j, i, dji)
	}
	if dij < -checkEps && r.NonNegative {
		r.NonNegative = false
		r.fail("negative d(%d,%d)=%g", i, j, dij)
	}
}

func (r *CheckReport) checkTriple(s Space, i, j, k int) {
	dij, dik, dkj := s.Dist(i, j), s.Dist(i, k), s.Dist(k, j)
	if excess := dij - (dik + dkj); excess > checkEps*(1+dij) {
		if r.TriangleOK {
			r.TriangleOK = false
			r.fail("triangle violated d(%d,%d)=%g > d(%d,%d)+d(%d,%d)=%g", i, j, dij, i, k, k, j, dik+dkj)
		}
		if rel := excess / (1 + dij); rel > r.MaxViolation {
			r.MaxViolation = rel
		}
	}
}

// fail records the first failure's description.
func (r *CheckReport) fail(format string, args ...any) {
	if r.Detail == "" {
		r.Detail = fmt.Sprintf(format, args...)
	}
}
