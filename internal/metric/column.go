package metric

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
		for i := range out {
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
