package metric

import (
	"encoding/binary"
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

// checkColumn requires CostColumn(c, f, idx, ·) to be, float bit for float
// bit, what Cost returns pair by pair, and to write nothing past the column.
func checkColumn(t testing.TB, label string, c Costs, f int, idx []int32) {
	t.Helper()
	n := len(idx)
	if idx == nil {
		n = c.Clients()
	}
	// One sentinel past the column: the kernel must not write beyond the
	// entries it was asked for.
	out := make([]float64, n+1)
	out[n] = -7
	CostColumn(c, f, idx, out[:n])
	for i := 0; i < n; i++ {
		j := i
		if idx != nil {
			j = int(idx[i])
		}
		if want := c.Cost(j, f); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("%s: column[%d] (client %d, facility %d) = %v (%#x), Cost = %v (%#x)",
				label, i, j, f, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
	if out[n] != -7 {
		t.Fatalf("%s: wrote past the column", label)
	}
}

// lengthIndexes are two client lists of length n over 40 clients: one
// ascending, one that repeats clients, also inside a group of four.
func lengthIndexes(n int) map[string][]int32 {
	asc, rep := make([]int32, n), make([]int32, n)
	for i := range asc {
		asc[i] = int32(i * 40 / n)
		rep[i] = int32(i / 2 * 5 % 40)
	}
	return map[string][]int32{"ascending": asc, "repeats": rep}
}

// specialPoints draws n points of dimension dim whose coordinates are
// ±Inf, NaN, ±0, subnormals, ±1e300 and a few ordinary values.
func specialPoints(n, dim int, seed int64) []Point {
	vals := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
		5e-324, -1.5e-310, 1e300, -1e300, 1, -2.5, 3e-8,
	}
	r := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = make(Point, dim)
		for k := range pts[i] {
			pts[i][k] = vals[r.Intn(len(vals))]
		}
	}
	return pts
}

// TestCostColumnMatchesCost: a column is, float bit for float bit, what Cost
// returns pair by pair. It runs every oracle, every built-in metric and
// dimensions on both sides of a multiple of four over a dense column (nil
// idx), a subset with repeats and an empty list; every column length 1-9 and
// 40, so each remainder of the kernel's four-row loop is hit, dense and
// through ascending and repeating indexes; a point set of ±Inf, NaN, ±0,
// subnormal and 1e300 coordinates; and a client row shorter than the rest.
func TestCostColumnMatchesCost(t *testing.T) {
	for _, m := range []Metric{EuclideanL2, ManhattanL1, ChebyshevLinf} {
		for _, dim := range []int{1, 2, 3, 5, 16, 17} {
			p := &Points{Pts: tiePoints(40, dim, int64(100+dim)), M: m}
			for name, c := range columnOracles(p) {
				nc := c.Clients()
				idxs := map[string][]int32{
					"nil":    nil,
					"subset": {int32(nc - 1), 0, 2, 2, 1},
					"empty":  {},
				}
				for iname, idx := range idxs {
					for _, f := range []int{0, c.Facilities() - 1} {
						checkColumn(t, fmt.Sprintf("%s %s dim=%d idx=%s", name, m, dim, iname), c, f, idx)
					}
				}
			}
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 40} {
				dense := &Points{Pts: p.Pts[:n], M: m}
				for _, f := range []int{0, n - 1} {
					label := fmt.Sprintf("%s dim=%d len=%d", m, dim, n)
					checkColumn(t, label+" dense", dense, f, nil)
					checkColumn(t, label+" dense squared", Squared{C: SelfCosts{S: dense}}, f, nil)
				}
				for iname, idx := range lengthIndexes(n) {
					for _, f := range []int{0, 39} {
						checkColumn(t, fmt.Sprintf("%s dim=%d len=%d idx=%s", m, dim, n, iname), p, f, idx)
					}
				}
			}
		}
		for _, dim := range []int{1, 3, 5, 17} {
			p := &Points{Pts: specialPoints(40, dim, int64(dim)), M: m}
			for f := range p.Pts {
				label := fmt.Sprintf("special %s dim=%d", m, dim)
				checkColumn(t, label, p, f, nil)
				checkColumn(t, label+" squared", Squared{C: SelfCosts{S: p}}, f, nil)
				for iname, idx := range lengthIndexes(7) {
					checkColumn(t, label+" idx="+iname, p, f, idx)
				}
			}
		}
		// A client row shorter than the facility's sends its group of four
		// to the one-row expression, which reads the client's length as
		// Cost does.
		ragged := tiePoints(8, 3, 1)
		ragged[2] = Point{1}
		checkColumn(t, fmt.Sprintf("ragged %s", m), &Points{Pts: ragged, M: m}, 0, nil)
	}
}

// FuzzCostColumn builds a point set, a metric, a facility and a client index
// from the fuzz bytes (coordinates are raw float64 bits, so NaN payloads,
// infinities and subnormals come up) and requires every column value to
// equal Cost bit for bit, dense and through the index.
//
// Layout: metric, dimension, facility, index length, that many index bytes,
// then eight bytes per coordinate.
func FuzzCostColumn(f *testing.F) {
	seed := func(m Metric, dim, fac int, idx []byte, coords ...float64) []byte {
		b := append([]byte{byte(m), byte(dim - 1), byte(fac), byte(len(idx))}, idx...)
		for _, x := range coords {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(EuclideanL2, 2, 0, []byte{4, 0, 0, 2, 1}, 0, 0, 3, 4, -1, 2.5, 7, 7, 1e300, -1e300))
	f.Add(seed(ManhattanL1, 1, 3, []byte{1, 2, 3}, math.Inf(1), math.NaN(), -0.0, 5e-324, 1))
	f.Add(seed(ChebyshevLinf, 3, 1, nil, 1, math.NaN(), 2, math.Inf(-1), 0, 4, 1, 1, 1, 2, 2, 2, 3, 3, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m, dim, fac, nidx := Metric(data[0]%3), 1+int(data[1]%17), int(data[2]), int(data[3])
		data = data[4:]
		if nidx > len(data) {
			nidx = len(data)
		}
		idxBytes, coords := data[:nidx], data[nidx:]
		n := min(len(coords)/(8*dim), 64)
		if n == 0 {
			return
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = make(Point, dim)
			for k := range pts[i] {
				pts[i][k] = math.Float64frombits(binary.LittleEndian.Uint64(coords[8*(i*dim+k):]))
			}
		}
		idx := make([]int32, len(idxBytes))
		for i, b := range idxBytes {
			idx[i] = int32(int(b) % n)
		}
		p := &Points{Pts: pts, M: m}
		label := fmt.Sprintf("%s dim=%d n=%d", m, dim, n)
		checkColumn(t, label, p, fac%n, nil)
		checkColumn(t, label+" idx", p, fac%n, idx)
		checkColumn(t, label+" squared", Squared{C: SelfCosts{S: p}}, fac%n, idx)
	})
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
// column. The four-row kernel took the median of six runs from 31.9 to
// 26.6 µs at dim 16 and from 10.7 to 8.6 µs at dim 2 (2 vCPUs, the one-row
// and four-row kernels run alternately).
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
