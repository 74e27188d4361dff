package metric

import "math"

// columnCoster is the optional bulk form of Costs.Cost behind CostColumn;
// the contract is CostColumn's.
type columnCoster interface {
	costColumn(f int, idx []int32, out []float64)
}

// CostColumn writes one facility's cost column: out[i] = c.Cost(idx[i], f)
// for every i, or out[j] = c.Cost(j, f) for every client j when idx is nil;
// len(out) must be len(idx), or c.Clients() then. Every float is exactly the one
// Cost returns. A dense facility-against-clients scan calls this once per
// facility instead of Cost once per pair: point sets resolve the metric once
// per column and run the distance loop in place, the self-cost and squaring
// wrappers forward to what they wrap, and every other oracle is read pair by
// pair here.
func CostColumn(c Costs, f int, idx []int32, out []float64) {
	if cc, okc := c.(columnCoster); okc {
		cc.costColumn(f, idx, out)
		return
	}
	if idx == nil {
		for j := range out {
			out[j] = c.Cost(j, f)
		}
		return
	}
	for i, j := range idx {
		out[i] = c.Cost(int(j), f)
	}
}

// costColumn is the native kernel. Each arm is the per-pair function's own
// expression on (client, facility), so the floats match Cost's bit for bit.
// The L2 arm, the one every workload runs, advances four clients per pass
// over the facility's coordinates: four independent accumulators, each in
// dimension order, so the CPU overlaps four dependency chains instead of
// waiting on one add at a time. Its spelling is SqL2's: s += d * d, which
// arm64 fuses into one FMADDD in both places; s += float64(d*d) would round
// the product and give other bits than Cost there. Fewer than four clients
// left, or a client row whose length is not the facility's, run the one-row
// expression.
func (p *Points) costColumn(f int, idx []int32, out []float64) {
	pf := p.Pts[f]
	switch p.M {
	case ManhattanL1:
		for i := range out {
			out[i] = L1(p.row(idx, i), pf)
		}
	case ChebyshevLinf:
		for i := range out {
			out[i] = Linf(p.row(idx, i), pf)
		}
	default:
		i := 0
		for ; i+4 <= len(out); i += 4 {
			a0, a1, a2, a3 := p.row(idx, i), p.row(idx, i+1), p.row(idx, i+2), p.row(idx, i+3)
			if len(a0) != len(pf) || len(a1) != len(pf) || len(a2) != len(pf) || len(a3) != len(pf) {
				break
			}
			a0, a1, a2, a3 = a0[:len(pf)], a1[:len(pf)], a2[:len(pf)], a3[:len(pf)]
			var s0, s1, s2, s3 float64
			for k, b := range pf {
				d0 := a0[k] - b
				s0 += d0 * d0
				d1 := a1[k] - b
				s1 += d1 * d1
				d2 := a2[k] - b
				s2 += d2 * d2
				d3 := a3[k] - b
				s3 += d3 * d3
			}
			o := out[i : i+4 : i+4]
			o[0], o[1], o[2], o[3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
		}
		for ; i < len(out); i++ {
			out[i] = L2(p.row(idx, i), pf)
		}
	}
}

// row is the i-th client of a column: idx[i], or i itself under a nil idx.
func (p *Points) row(idx []int32, i int) Point {
	if idx != nil {
		i = int(idx[i])
	}
	return p.Pts[i]
}

func (sc SelfCosts) costColumn(f int, idx []int32, out []float64) {
	if cc, okc := sc.S.(columnCoster); okc {
		cc.costColumn(f, idx, out)
		return
	}
	if idx == nil {
		for j := range out {
			out[j] = sc.S.Dist(j, f)
		}
		return
	}
	for i, j := range idx {
		out[i] = sc.S.Dist(int(j), f)
	}
}

func (s Squared) costColumn(f int, idx []int32, out []float64) {
	CostColumn(s.C, f, idx, out)
	for i, d := range out {
		out[i] = d * d
	}
}

// triangular is declared by the oracles whose costs are known to obey the
// triangle inequality; see TrianglePower.
type triangular interface {
	trianglePower() int
}

// TrianglePower reports what a solver may assume about c's geometry: 1 when
// Cost is a metric over one index set shared by clients and facilities
// (client i and facility i are the same point), 2 when it is the square of
// such a metric, 0 when nothing is known. The answer is declared by the
// oracle, never inferred from its values: a bound built on it decides which
// pairs a scan may skip, and a wrong yes would change results. Only point
// sets under the built-in metrics, their memo, and the SelfCosts / Squared
// views of those say yes; an explicit Matrix, a client or facility subset,
// and every oracle outside this package answer 0 and are scanned in full.
func TrianglePower(c Costs) int {
	if t, okt := c.(triangular); okt {
		return t.trianglePower()
	}
	return 0
}

func spacePower(s Space) int {
	if t, okt := s.(triangular); okt {
		return t.trianglePower()
	}
	return 0
}

func (p *Points) trianglePower() int     { return 1 }
func (dc *DistCache) trianglePower() int { return spacePower(dc.S) }
func (sc SelfCosts) trianglePower() int  { return spacePower(sc.S) }

func (s Squared) trianglePower() int {
	if TrianglePower(s.C) == 1 {
		return 2
	}
	return 0
}
