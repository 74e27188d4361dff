package metric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// columnOracles is every shape of cost oracle CostColumn can meet over one
// point set: the native kernel, each forwarding wrapper, and the oracles that
// are read pair by pair.
func columnOracles(p *Points) map[string]Costs {
	sub := []int{3, 0, 7, 7, 11}
	return map[string]Costs{
		"points":            p,
		"selfcosts":         SelfCosts{S: p},
		"squared":           Squared{C: SelfCosts{S: p}},
		"squared-points":    Squared{C: p},
		"distcache":         NewDistCache(p),
		"selfcosts-cache":   SelfCosts{S: NewDistCache(p)},
		"squared-cache":     Squared{C: SelfCosts{S: NewDistCache(p)}},
		"costcache":         NewCostCache(p),
		"subcosts":          SubCosts{C: p, ClientIdx: sub},
		"facilitysubset":    FacilitySubset{C: Squared{C: p}, FacIdx: sub},
		"selfcosts-matrix":  SelfCosts{S: spaceMatrix(p)},
		"squared-subcosts":  Squared{C: SubCosts{C: p, ClientIdx: sub}},
		"selfcosts-angular": SelfCosts{S: &AngularSpace{Pts: p.Pts}},
	}
}

// spaceMatrix materializes s as an explicit Matrix.
func spaceMatrix(s Space) Matrix {
	m := make(Matrix, s.N())
	for i := range m {
		m[i] = make([]float64, s.N())
		for j := range m[i] {
			m[i][j] = s.Dist(i, j)
		}
	}
	return m
}

// TestCostColumnMatchesCost: a column is, float bit for float bit, what Cost
// returns pair by pair — every oracle, every built-in metric, a dense column
// (nil idx), a subset with repeats, and an empty list.
func TestCostColumnMatchesCost(t *testing.T) {
	for _, m := range []Metric{EuclideanL2, ManhattanL1, ChebyshevLinf} {
		for _, dim := range []int{1, 2, 16} {
			p := &Points{Pts: tiePoints(40, dim, int64(100+dim)), M: m}
			for name, c := range columnOracles(p) {
				label := fmt.Sprintf("%s %s dim=%d", name, m, dim)
				nc := c.Clients()
				idxs := map[string][]int32{
					"nil":    nil,
					"subset": {int32(nc - 1), 0, 2, 2, 1},
					"empty":  {},
				}
				for iname, idx := range idxs {
					for _, f := range []int{0, c.Facilities() - 1} {
						n := len(idx)
						if idx == nil {
							n = nc
						}
						// One sentinel past the column: the kernel must not
						// write beyond the entries it was asked for.
						out := make([]float64, n+1)
						out[n] = -7
						CostColumn(c, f, idx, out[:n])
						for i := 0; i < n; i++ {
							j := i
							if idx != nil {
								j = int(idx[i])
							}
							if want := c.Cost(j, f); math.Float64bits(out[i]) != math.Float64bits(want) {
								t.Fatalf("%s idx=%s: column[%d] (client %d, facility %d) = %v, Cost = %v", label, iname, i, j, f, out[i], want)
							}
						}
						if out[n] != -7 {
							t.Fatalf("%s idx=%s: wrote past the column", label, iname)
						}
					}
				}
			}
		}
	}
}

// TestCostColumnDoesNotAllocate pins the hot path: a column through the
// Squared -> SelfCosts -> Points chain core builds (and through Points
// itself) allocates nothing, dense or indexed.
func TestCostColumnDoesNotAllocate(t *testing.T) {
	p := NewPoints(tiePoints(300, 16, 9))
	idx := make([]int32, 0, 150)
	for j := 0; j < 300; j += 2 {
		idx = append(idx, int32(j))
	}
	out := make([]float64, 300)
	for name, c := range map[string]Costs{"points": p, "squared": Squared{C: SelfCosts{S: p}}} {
		if a := testing.AllocsPerRun(20, func() {
			CostColumn(c, 17, nil, out)
			CostColumn(c, 17, idx, out[:len(idx)])
		}); a != 0 {
			t.Fatalf("%s: CostColumn allocates %v times per run", name, a)
		}
	}
}

// TestTrianglePowerDeclared is the capability table of this package: every
// Costs implementation and wrapper composition, and the power it declares.
// Only point sets under the built-in metrics, their memo and the SelfCosts /
// Squared views of those say yes.
func TestTrianglePowerDeclared(t *testing.T) {
	p := NewPoints(tiePoints(60, 3, 5))
	l1 := &Points{Pts: p.Pts, M: ManhattanL1}
	dc := NewDistCache(p)
	graph := randGraphMetric(t, 60, 3) // a true metric, but only by its values
	sub := []int{0, 1, 2}
	for _, tc := range []struct {
		name string
		c    Costs
		want int
	}{
		{"points", p, 1},
		{"points-l1", l1, 1},
		{"points-linf", &Points{Pts: p.Pts, M: ChebyshevLinf}, 1},
		{"selfcosts-points", SelfCosts{S: p}, 1},
		{"distcache-points", dc, 1},
		{"selfcosts-distcache", SelfCosts{S: dc}, 1},
		{"squared-selfcosts-points", Squared{C: SelfCosts{S: p}}, 2},
		{"squared-points", Squared{C: l1}, 2},
		{"squared-selfcosts-distcache", Squared{C: SelfCosts{S: dc}}, 2},

		{"squared-squared", Squared{C: Squared{C: p}}, 0},
		{"matrix", graph, 0},
		{"selfcosts-matrix", SelfCosts{S: graph}, 0},
		{"squared-selfcosts-matrix", Squared{C: SelfCosts{S: graph}}, 0},
		{"distcache-matrix", NewDistCache(graph), 0},
		{"angular", &AngularSpace{Pts: p.Pts}, 0},
		{"selfcosts-angular", SelfCosts{S: &AngularSpace{Pts: p.Pts}}, 0},
		{"subcosts", SubCosts{C: p, ClientIdx: sub}, 0},
		{"facilitysubset", FacilitySubset{C: p, FacIdx: sub}, 0},
		{"squared-subcosts", Squared{C: SubCosts{C: p, ClientIdx: sub}}, 0},
		{"costcache", NewCostCache(p), 0},
		{"cross", Cross{Pts: p.Pts, Centers: p.Pts[:3]}, 0},
		{"cross-squared", Cross{Pts: p.Pts, Centers: p.Pts[:3], Squared: true}, 0},
		{"selfcosts-hugespace", SelfCosts{S: &hugeSpace{n: 8}}, 0},
	} {
		if got := TrianglePower(tc.c); got != tc.want {
			t.Errorf("TrianglePower(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func benchColumnPoints(dim int) *Points {
	r := rand.New(rand.NewSource(1))
	pts := make([]Point, 2100)
	for i := range pts {
		pts[i] = randPoint(r, dim)
	}
	return NewPoints(pts)
}

// BenchmarkCostColumn is one dense 2100-client column under squared costs —
// the means-hidim site's shape — through the chain core builds; ns/op is per
// column.
func BenchmarkCostColumn(b *testing.B) {
	for _, dim := range []int{2, 16} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			var c Costs = Squared{C: SelfCosts{S: benchColumnPoints(dim)}}
			out := make([]float64, c.Clients())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CostColumn(c, i%len(out), nil, out)
			}
		})
	}
}

var benchSink float64

// BenchmarkPointsDist is the per-pair path every scan outside the potential
// scan still takes (d1/d2, Eval, seeding, kcenter, the coordinator's matrix
// fill): 2100 Dist calls through the Space interface; ns/op is per 2100
// pairs, comparable with BenchmarkCostColumn.
func BenchmarkPointsDist(b *testing.B) {
	for _, dim := range []int{2, 16} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			var s Space = benchColumnPoints(dim)
			n := s.N()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := i % n
				var sum float64
				for j := 0; j < n; j++ {
					sum += s.Dist(j, f)
				}
				benchSink = sum
			}
		})
	}
}
