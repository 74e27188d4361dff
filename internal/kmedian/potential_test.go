package kmedian

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

// scanStats counts what potentialParity saw: pairs the bound dropped of
// the live ones, and the grouped survivor walk's edge cases — a group
// holding equal r2, a live client without a finite center (a1 = -1), and
// an r2 forced to +Inf by tinyDist.
type scanStats struct {
	dropped, total             int
	equalR2, noCenter, tinyInf int
}

func (s *scanStats) add(o scanStats) {
	s.dropped += o.dropped
	s.total += o.total
	s.equalR2 += o.equalR2
	s.noCenter += o.noCenter
	s.tinyInf += o.tinyInf
}

// filterSurvivors is survivors' defining predicate run as a filter over
// the live clients in ascending order: keep j when candidate f's threshold
// for j's nearest center is below r2[j].
func filterSurvivors(ps *potScan, f int) []int32 {
	thr := []float64{math.Inf(-1)} // a1 = -1
	for _, c := range ps.centers {
		d := ps.c.Cost(f, c)
		if ps.power == 2 {
			d = math.Sqrt(d)
		}
		if math.IsInf(d, 1) {
			d = math.Inf(-1)
		}
		thr = append(thr, d*metric.LBScale)
	}
	var out []int32
	for _, j := range ps.live {
		if thr[ps.a1[j]+1] < ps.r2[j] {
			out = append(out, j)
		}
	}
	return out
}

// potentialParity sets up one descent round on c — the given centers, the
// partial solution Eval finds for them — and holds the potential scan, with
// the oracle's declared triangle power, to the same scan with the bound
// switched off and to descendReference's own loop, bit for bit, for every
// facility; and where the bound is on, holds survivors to filterSurvivors'
// list, element for element.
func potentialParity(t testing.TB, label string, c metric.Costs, wantPower int, w []float64, centers []int, budget float64) (st scanStats) {
	t.Helper()
	nc, nf := c.Clients(), c.Facilities()
	cur := Eval(c, w, centers, budget)
	d1, a1, inW := make([]float64, nc), make([]int, nc), make([]float64, nc)
	for j := 0; j < nc; j++ {
		d1[j], a1[j] = math.Inf(1), -1
		for p, f := range cur.Centers {
			if x := c.Cost(j, f); x < d1[j] {
				d1[j], a1[j] = x, p
			}
		}
		inW[j] = weight(w, j) - cur.DroppedWeight[j]
	}
	ps := newPotScan(c, d1, a1, inW)
	if ps.power != wantPower {
		t.Fatalf("%s: oracle declares triangle power %d, want %d", label, ps.power, wantPower)
	}
	order := make([]int, nc)
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, descBy(d1))
	ps.begin(cur.Centers, order)
	full := *ps
	full.power, full.scr = 0, nil
	all := make([]int, nf)
	for f := range all {
		all[f] = f
	}
	got, unpruned := make([]float64, nf), make([]float64, nf)
	ps.potentials(1, all, got)
	full.potentials(3, all, unpruned)
	for f := 0; f < nf; f++ {
		var want float64
		for j := 0; j < nc; j++ {
			if inW[j] <= 0 {
				continue
			}
			if s := d1[j] - c.Cost(j, f); s > 0 {
				want += inW[j] * s
			}
		}
		if math.Float64bits(got[f]) != math.Float64bits(want) || math.Float64bits(unpruned[f]) != math.Float64bits(want) {
			t.Fatalf("%s: facility %d potential: pruned %v (%#x), unpruned %v (%#x), reference loop %v (%#x)", label, f,
				got[f], math.Float64bits(got[f]), unpruned[f], math.Float64bits(unpruned[f]), want, math.Float64bits(want))
		}
		st.total += len(ps.live)
		if ps.power > 0 {
			surv, filt := ps.survivors(ps.scr[0], f), filterSurvivors(ps, f)
			if !slices.Equal(surv, filt) {
				t.Fatalf("%s: facility %d survivors %v, the predicate keeps %v", label, f, surv, filt)
			}
			st.dropped += len(ps.live) - len(surv)
		}
	}
	if ps.power > 0 {
		for _, j := range ps.live {
			switch {
			case a1[j] < 0:
				st.noCenter++
			case math.IsInf(ps.r2[j], 1) && !math.IsInf(d1[j], 1):
				st.tinyInf++
			}
		}
		for _, grp := range ps.groups {
			for i := 1; i < len(grp); i++ {
				if grp[i].r2 == grp[i-1].r2 {
					st.equalR2++
				}
			}
		}
	}
	return st
}

// clusteredPoints is a small mixture with the shapes the bound must survive:
// tight clusters (where it bites), exact duplicates, and far outliers, all
// scaled by scale.
func clusteredPoints(r *rand.Rand, n, dim int, scale float64) []metric.Point {
	centers := make([]metric.Point, 4)
	for i := range centers {
		centers[i] = make(metric.Point, dim)
		for d := range centers[i] {
			centers[i][d] = r.Float64() * 100
		}
	}
	pts := make([]metric.Point, n)
	for i := range pts {
		p := make(metric.Point, dim)
		switch {
		case i > 0 && i%7 == 0:
			copy(p, pts[r.Intn(i)]) // duplicate
		case i%23 == 5:
			for d := range p {
				p[d] = (r.Float64()*2 - 1) * 5000 * scale // far outlier
			}
		default:
			for d := range p {
				p[d] = (centers[i%len(centers)][d] + r.NormFloat64()) * scale
			}
		}
		pts[i] = p
	}
	return pts
}

// tripledPoints is clusteredPoints with every point three times: zero
// distances, and equal r2 in every group.
func tripledPoints(r *rand.Rand, n, dim int) []metric.Point {
	base := clusteredPoints(r, (n+2)/3, dim, 1)
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = base[i/3]
	}
	return pts
}

// withUnreachable puts one point at +Inf in every coordinate: no finite
// cost to any other point, so unless it is a center itself it has no
// finite center (a1 = -1).
func withUnreachable(pts []metric.Point) []metric.Point {
	inf := make(metric.Point, len(pts[0]))
	for d := range inf {
		inf[d] = math.Inf(1)
	}
	pts[1] = inf
	return pts
}

// linePoints are integer points on the first axis: every triangle is
// degenerate, and d(f,c) == 2*d(j,c) holds exactly for many triples — the
// tight case, where the full scan's term is exactly 0 and a bound that
// rounded the wrong way would drop (or keep) the wrong client.
func linePoints(r *rand.Rand, n, dim int) []metric.Point {
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = make(metric.Point, dim)
		pts[i][0] = float64(r.Intn(64))
	}
	return pts
}

// rayPoints are small integer multiples of one random vector: collinear
// like linePoints, but with coordinates that round, so the computed d(f,c)
// and 2*d(j,c) land within ulps of each other on either side — the case the
// bound's 1e-9 deflation exists for.
func rayPoints(r *rand.Rand, n, dim int) []metric.Point {
	u := make(metric.Point, dim)
	for d := range u {
		u[d] = r.NormFloat64()
	}
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = make(metric.Point, dim)
		m := float64(r.Intn(48))
		for d := range u {
			pts[i][d] = m * u[d]
		}
	}
	return pts
}

// potentialOracles are the cost views of one point set a site can end up
// solving on, each with the power it must declare.
func potentialOracles(p *metric.Points, means bool) map[string]metric.Costs {
	dc := metric.NewDistCache(p)
	if !means {
		return map[string]metric.Costs{"points": p, "selfcosts": metric.SelfCosts{S: p}, "cache": metric.SelfCosts{S: dc}}
	}
	return map[string]metric.Costs{
		"sq-points": metric.Squared{C: metric.SelfCosts{S: p}},
		"sq-cache":  metric.Squared{C: metric.SelfCosts{S: dc}},
	}
}

// TestPotentialPruneMatchesFullScan: the nearest-center bound never changes
// a potential. Every built-in metric, median and means, three dimensions,
// unit and fractional weights, no / fractional / total outlier budget, k = 1
// and k > 1, on clustered data with duplicates and far outliers, on the
// tight-triangle line and ray, and at the scales where distances underflow or
// overflow.
func TestPotentialPruneMatchesFullScan(t *testing.T) {
	const n = 90
	var clustered, seen scanStats
	for _, m := range []metric.Metric{metric.EuclideanL2, metric.ManhattanL1, metric.ChebyshevLinf} {
		for _, dim := range []int{1, 2, 16} {
			r := rand.New(rand.NewSource(int64(dim)*10 + int64(m)))
			families := map[string][]metric.Point{
				"clustered": clusteredPoints(r, n, dim, 1),
				"line":      linePoints(r, n, dim),
				"ray":       rayPoints(r, n, dim),
				"tiny":      clusteredPoints(r, n, dim, 1e-162),
				"huge":      clusteredPoints(r, n, dim, 1e152),
				"triplets":  tripledPoints(r, n, dim),
				"unreached": withUnreachable(clusteredPoints(r, n, dim, 1)),
			}
			w := make([]float64, n)
			for j := range w {
				w[j] = 0.25 + r.Float64()*2
			}
			for fam, pts := range families {
				p := &metric.Points{Pts: pts, M: m}
				for _, means := range []bool{false, true} {
					power := 1
					if means {
						power = 2
					}
					for oname, c := range potentialOracles(p, means) {
						for _, weights := range [][]float64{nil, w} {
							for _, budget := range []float64{0, 7.5, n, 4 * n} {
								for _, k := range []int{1, 5} {
									centers := r.Perm(n)[:k]
									label := fmt.Sprintf("%s %s dim=%d %s weighted=%v t=%v k=%d", fam, m, dim, oname, weights != nil, budget, k)
									st := potentialParity(t, label, c, power, weights, centers, budget)
									seen.add(st)
									if fam == "clustered" {
										clustered.add(st)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// Not a vacuous pass: on clustered data the bound must actually bite,
	// and the grouped walk must have met each of its edge cases.
	if clustered.dropped*4 < clustered.total {
		t.Fatalf("the bound dropped only %d of %d live pairs on clustered data", clustered.dropped, clustered.total)
	}
	if seen.equalR2 == 0 || seen.noCenter == 0 || seen.tinyInf == 0 {
		t.Fatalf("edge cases not reached: %d equal r2 in a group, %d clients without a finite center, %d r2 forced to +Inf",
			seen.equalR2, seen.noCenter, seen.tinyInf)
	}
	t.Logf("clustered: bound dropped %d of %d live pairs (%.0f%%); edge cases: %d equal r2, %d without a center, %d r2 = +Inf", clustered.dropped, clustered.total,
		100*float64(clustered.dropped)/float64(clustered.total), seen.equalR2, seen.noCenter, seen.tinyInf)
}

// TestPotentialScanAtInfinity: a client with no finite cost to any center
// (a1 = -1, d1 = +Inf) is never dropped, and a center distance that
// overflowed to +Inf drops nobody.
func TestPotentialScanAtInfinity(t *testing.T) {
	pts := []metric.Point{{0}, {1}, {2}, {math.Inf(1)}, {5}}
	c := metric.SelfCosts{S: metric.NewPoints(pts)}
	potentialParity(t, "inf client", c, 1, nil, []int{0}, 0)
	potentialParity(t, "inf client squared", metric.Squared{C: c}, 2, nil, []int{0, 1}, 1)
	// d(f,c) = 1.4e154 squares past MaxFloat64, so L2 returns +Inf for it,
	// while client 1 sits nearer the candidate (0.65e154) than its center
	// (0.75e154) and contributes. Budget 1 drops client 2, whose own term
	// would otherwise be +Inf and hide the difference.
	far := metric.SelfCosts{S: metric.NewPoints([]metric.Point{{0}, {0.75e154}, {1.4e154}})}
	if d := far.Cost(2, 0); !math.IsInf(d, 1) {
		t.Fatalf("d(f,c) = %v, want an overflow", d)
	}
	potentialParity(t, "overflowed center distance", far, 1, nil, []int{0}, 1)
	potentialParity(t, "overflowed center distance squared", metric.Squared{C: far}, 2, nil, []int{0}, 1)
}

// TestNonMetricOracleScansInFull: a Matrix that violates the triangle
// inequality, handed through SelfCosts, declares no power, so the fast
// engine scans it in full and still matches the reference engine bit for
// bit — the bound would have dropped contributing clients here.
func TestNonMetricOracleScansInFull(t *testing.T) {
	const n = 120
	r := rand.New(rand.NewSource(4))
	m := make(metric.Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 0.01 + r.Float64()*r.Float64()*100 // no triangle inequality at all
			m[i][j], m[j][i] = d, d
		}
	}
	if metric.CheckMetric(m) == nil {
		t.Fatal("the random matrix happens to be a metric")
	}
	for name, c := range map[string]metric.Costs{"matrix": m, "selfcosts": metric.SelfCosts{S: m}, "squared": metric.Squared{C: metric.SelfCosts{S: m}}} {
		if p := metric.TrianglePower(c); p != 0 {
			t.Fatalf("%s declares triangle power %d", name, p)
		}
		ref := LocalSearch(c, nil, 6, 8, Options{Seed: 3, Options: engine.Options{Reference: true}})
		got := LocalSearch(c, nil, 6, 8, Options{Seed: 3})
		sameSolution(t, name, ref, got)
		potentialParity(t, name, c, 0, nil, ref.Centers, 8)
	}
}

// FuzzPotentialPrune drives potentialParity over seeded instances: the seed
// picks the points, the other arguments the metric, objective, dimension,
// scale (a power of two, through the underflow and overflow ranges), center
// count, weights, budget, and whether every point comes three times (32) or
// one point sits at +Inf (64).
func FuzzPotentialPrune(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(2), uint8(3), uint8(0), int16(0), 3.5)
	f.Add(int64(2), uint8(90), uint8(16), uint8(5), uint8(1|4), int16(0), 0.0)
	f.Add(int64(3), uint8(40), uint8(1), uint8(1), uint8(2|8), int16(-540), 100.0)
	f.Add(int64(4), uint8(70), uint8(3), uint8(7), uint8(4|16), int16(500), 0.5)
	f.Add(int64(5), uint8(33), uint8(1), uint8(4), uint8(8|16), int16(-1060), 2.0)
	// The grouped survivor walk's edge cases: equal r2 and duplicates
	// (tripled points, and the line), a client without a finite center,
	// and r2 = +Inf from tinyDist (the underflow scales).
	f.Add(int64(6), uint8(60), uint8(2), uint8(4), uint8(32), int16(0), 3.0)
	f.Add(int64(7), uint8(45), uint8(3), uint8(3), uint8(4|32), int16(0), 0.0)
	f.Add(int64(8), uint8(50), uint8(2), uint8(5), uint8(64), int16(0), 1.0)
	f.Add(int64(9), uint8(50), uint8(1), uint8(2), uint8(4|8|64), int16(0), 6.5)
	f.Add(int64(10), uint8(40), uint8(2), uint8(3), uint8(32), int16(-540), 2.0)
	f.Add(int64(11), uint8(64), uint8(1), uint8(4), uint8(16|32), int16(-1060), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n, dim, k, flags uint8, exp int16, budget float64) {
		if n < 2 || dim == 0 || dim > 24 || k == 0 || int(k) > int(n) || exp < -1070 || exp > 1000 || !(budget >= 0) || math.IsInf(budget, 1) {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		var pts []metric.Point
		if flags&16 != 0 {
			pts = linePoints(r, int(n), int(dim))
			for _, p := range pts {
				p[0] = math.Ldexp(p[0], int(exp))
			}
		} else {
			pts = clusteredPoints(r, int(n), int(dim), math.Ldexp(1, int(exp)))
		}
		if flags&32 != 0 {
			base := slices.Clone(pts)
			for i := range pts {
				pts[i] = base[i/3]
			}
		}
		if flags&64 != 0 {
			pts = withUnreachable(pts)
		}
		p := &metric.Points{Pts: pts, M: metric.Metric(flags & 3 % 3)}
		var c metric.Costs = metric.SelfCosts{S: p}
		power := 1
		if flags&4 != 0 {
			c, power = metric.Squared{C: c}, 2
		}
		var w []float64
		if flags&8 != 0 {
			w = make([]float64, n)
			for j := range w {
				w[j] = 0.25 + r.Float64()*2
			}
		}
		potentialParity(t, "fuzz", c, power, w, r.Perm(int(n))[:k], budget)
	})
}
