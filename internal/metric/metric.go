// Package metric provides the metric-space substrate shared by every solver
// in this repository: points, distance functions, finite metric spaces, and
// the client/facility cost-oracle abstraction that lets the same clustering
// engines run on Euclidean data, explicit distance matrices, the compressed
// graph of Section 5, and truncated expected distances (Definition 5.7).
//
// The paper works with "a graph with n nodes and an oracle distance function
// d(.,.)" (Section 1, Models and Problems); Space and Costs are that oracle.
package metric

import (
	"fmt"
	"math"
)

// Point is a point in d-dimensional Euclidean space.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are identical coordinate-wise.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dim returns the dimension of the point.
func (p Point) Dim() int { return len(p) }

// SqL2 returns the squared Euclidean distance between a and b.
func SqL2(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b Point) float64 { return math.Sqrt(SqL2(a, b)) }

// L1 returns the Manhattan distance between a and b.
func L1(a, b Point) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Linf returns the Chebyshev distance between a and b.
func Linf(a, b Point) float64 {
	var s float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > s {
			s = d
		}
	}
	return s
}

// Metric selects one of the built-in point-to-point distance functions.
type Metric int

const (
	// EuclideanL2 is the standard Euclidean metric (default).
	EuclideanL2 Metric = iota
	// ManhattanL1 is the L1 metric.
	ManhattanL1
	// ChebyshevLinf is the L-infinity metric.
	ChebyshevLinf
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case EuclideanL2:
		return "L2"
	case ManhattanL1:
		return "L1"
	case ChebyshevLinf:
		return "Linf"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Func returns the distance function for the metric.
func (m Metric) Func() func(a, b Point) float64 {
	switch m {
	case ManhattanL1:
		return L1
	case ChebyshevLinf:
		return Linf
	default:
		return L2
	}
}

// dist is the metric's distance by static call: the per-pair paths (Points.Dist
// and Points.Cost) pay a switch, not a func value fetched and called per pair.
func (m Metric) dist(a, b Point) float64 {
	switch m {
	case ManhattanL1:
		return L1(a, b)
	case ChebyshevLinf:
		return Linf(a, b)
	default:
		return L2(a, b)
	}
}

// Space is a finite metric space given by a symmetric distance oracle over
// indices 0..N()-1. Implementations must satisfy d(i,i)=0, symmetry, and the
// triangle inequality (verified in tests via CheckMetric).
type Space interface {
	N() int
	Dist(i, j int) float64
}

// Costs is the client/facility connection-cost oracle that every clustering
// engine consumes. Clients are demand points; facilities are candidate
// centers. For plain point sets the two coincide (see SelfCosts); for the
// compressed graph of Section 5 the clients are the tentacle vertices p_j
// and the facilities are the 1-medians y_j.
//
// Cost need not be a metric (k-means squared costs and the truncated
// rho_tau costs of Definition 5.7 are not), but each engine documents what
// it assumes.
type Costs interface {
	Clients() int
	Facilities() int
	Cost(client, facility int) float64
}

// Points is a finite set of Euclidean points under a chosen metric. It
// implements both Space (pairwise distances) and Costs (self facilities).
type Points struct {
	Pts []Point
	M   Metric
}

// NewPoints wraps pts in the default Euclidean metric.
func NewPoints(pts []Point) *Points { return &Points{Pts: pts, M: EuclideanL2} }

// N implements Space.
func (p *Points) N() int { return len(p.Pts) }

// Dist implements Space.
func (p *Points) Dist(i, j int) float64 { return p.M.dist(p.Pts[i], p.Pts[j]) }

// Clients implements Costs.
func (p *Points) Clients() int { return len(p.Pts) }

// Facilities implements Costs.
func (p *Points) Facilities() int { return len(p.Pts) }

// Cost implements Costs.
func (p *Points) Cost(c, f int) float64 { return p.M.dist(p.Pts[c], p.Pts[f]) }

// Dim returns the dimension of the point set (0 when empty).
func (p *Points) Dim() int {
	if len(p.Pts) == 0 {
		return 0
	}
	return len(p.Pts[0])
}

// Matrix is an explicit symmetric distance matrix; it implements Space and
// Costs. Used for graph metrics and in tests.
type Matrix [][]float64

// N implements Space.
func (m Matrix) N() int { return len(m) }

// Dist implements Space.
func (m Matrix) Dist(i, j int) float64 { return m[i][j] }

// Clients implements Costs.
func (m Matrix) Clients() int { return len(m) }

// Facilities implements Costs.
func (m Matrix) Facilities() int { return len(m) }

// Cost implements Costs.
func (m Matrix) Cost(c, f int) float64 { return m[c][f] }

// SelfCosts adapts a Space into a Costs where every point is both a client
// and a facility.
type SelfCosts struct{ S Space }

// Clients implements Costs.
func (sc SelfCosts) Clients() int { return sc.S.N() }

// Facilities implements Costs.
func (sc SelfCosts) Facilities() int { return sc.S.N() }

// Cost implements Costs.
func (sc SelfCosts) Cost(c, f int) float64 { return sc.S.Dist(c, f) }

// Squared wraps a Costs oracle and squares every connection cost; this is
// how the (k,t)-means objective is expressed throughout the repository.
type Squared struct{ C Costs }

// Clients implements Costs.
func (s Squared) Clients() int { return s.C.Clients() }

// Facilities implements Costs.
func (s Squared) Facilities() int { return s.C.Facilities() }

// Cost implements Costs.
func (s Squared) Cost(c, f int) float64 {
	d := s.C.Cost(c, f)
	return d * d
}

// SubCosts restricts a Costs oracle to a subset of clients (facility set
// unchanged). Client i of the sub-oracle is ClientIdx[i] of the parent.
type SubCosts struct {
	C         Costs
	ClientIdx []int
}

// Clients implements Costs.
func (s SubCosts) Clients() int { return len(s.ClientIdx) }

// Facilities implements Costs.
func (s SubCosts) Facilities() int { return s.C.Facilities() }

// Cost implements Costs.
func (s SubCosts) Cost(c, f int) float64 { return s.C.Cost(s.ClientIdx[c], f) }

// FacilitySubset restricts a Costs oracle to a subset of facilities
// (clients unchanged). Facility i of the sub-oracle is FacIdx[i] of the
// parent.
type FacilitySubset struct {
	C      Costs
	FacIdx []int
}

// Clients implements Costs.
func (s FacilitySubset) Clients() int { return s.C.Clients() }

// Facilities implements Costs.
func (s FacilitySubset) Facilities() int { return len(s.FacIdx) }

// Cost implements Costs.
func (s FacilitySubset) Cost(c, f int) float64 { return s.C.Cost(c, s.FacIdx[f]) }

// Cross is the Costs of Euclidean points (the clients) against arbitrary
// centers (the facilities), which need not be input points: L2, or SqL2
// when Squared (the (k,t)-means cost, which is SqL2 itself, not L2
// squared).
type Cross struct {
	Pts, Centers []Point
	Squared      bool
}

// Clients implements Costs.
func (x Cross) Clients() int { return len(x.Pts) }

// Facilities implements Costs.
func (x Cross) Facilities() int { return len(x.Centers) }

// Cost implements Costs.
func (x Cross) Cost(c, f int) float64 {
	if x.Squared {
		return SqL2(x.Pts[c], x.Centers[f])
	}
	return L2(x.Pts[c], x.Centers[f])
}

// MinMaxDist returns the minimum nonzero and the maximum pairwise distance
// in the space. The ratio dmax/dmin is the spread Delta used by
// Algorithm 4. Returns (0,0) for spaces with fewer than two points.
func MinMaxDist(s Space) (dmin, dmax float64) {
	n := s.N()
	if n < 2 {
		return 0, 0
	}
	dmin = math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := s.Dist(i, j)
			if d > dmax {
				dmax = d
			}
			if d > 0 && d < dmin {
				dmin = d
			}
		}
	}
	if math.IsInf(dmin, 1) { // all points identical
		dmin = 0
	}
	return dmin, dmax
}

// CheckMetric verifies (exhaustively, O(n^3)) that s satisfies the metric
// axioms up to floating-point slack. Intended for tests; Check returns the
// underlying typed report.
func CheckMetric(s Space) error {
	return Check(s).Err()
}

// Centroid returns the coordinate-wise mean of pts weighted by w (nil means
// unit weights). It is the unconstrained 1-mean in Euclidean space.
func Centroid(pts []Point, w []float64) Point {
	if len(pts) == 0 {
		return nil
	}
	dim := len(pts[0])
	c := make(Point, dim)
	var tot float64
	for i, p := range pts {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		for d := 0; d < dim; d++ {
			c[d] += wi * p[d]
		}
		tot += wi
	}
	if tot > 0 {
		for d := 0; d < dim; d++ {
			c[d] /= tot
		}
	}
	return c
}
