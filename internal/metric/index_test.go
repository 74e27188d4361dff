package metric

import (
	"math/rand"
	"testing"
)

// randPoints builds n d-dimensional points, with adversarial near-ties: a
// fraction of the points are near-duplicates of earlier ones, offset by a
// perturbation far below the distances between distinct cluster members, so
// nearest-candidate scans constantly decide between almost-equal distances
// — exactly where an off-by-one in the pruning bound would flip a winner.
func tiePoints(n, d int, seed int64) []Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		if i > 0 && r.Float64() < 0.3 {
			base := pts[r.Intn(i)]
			p := base.Clone()
			p[r.Intn(d)] += (r.Float64() - 0.5) * 1e-9
			pts[i] = p
			continue
		}
		p := make(Point, d)
		for j := range p {
			p[j] = r.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

// randGraphMetric builds a random connected weighted graph and returns its
// shortest-path metric — a genuinely non-Euclidean metric space.
func randGraphMetric(t *testing.T, n int, seed int64) Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: r.Intn(i), V: i, W: 0.1 + r.Float64()})
	}
	for e := 0; e < 2*n; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, W: 0.1 + 3*r.Float64()})
		}
	}
	m, err := GraphMetric(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkNearestMatchesScan asserts the property the whole index rests on:
// for every query and candidate set, the pruned scan returns exactly the
// full scan's winner — a pruned candidate is never the true nearest. It
// returns how many candidates the queries offered.
func checkNearestMatchesScan(t *testing.T, s Space, ix *Index, seed int64) (offered int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := s.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for trial := 0; trial < 200; trial++ {
		p := r.Intn(n)
		cands := all
		if trial%2 == 1 {
			cands = make([]int, 1+r.Intn(n))
			for i := range cands {
				cands[i] = r.Intn(n)
			}
		}
		wantJ, wantD := scanNearest(s, p, cands)
		gotJ, gotD := ix.Nearest(p, cands)
		if gotJ != wantJ || gotD != wantD {
			t.Fatalf("trial %d: Nearest(%d) = (%d, %v), full scan (%d, %v)",
				trial, p, gotJ, gotD, wantJ, wantD)
		}
		offered += int64(len(cands))
	}
	return offered
}

func TestIndexNearestEuclideanNearTies(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pts := tiePoints(300, 4, seed)
		sp := NewPoints(pts)
		cs := &countingSpace{p: sp}
		ix := NewIndex(cs, IndexOptions{Pivots: 8})
		if !ix.ok {
			t.Fatalf("seed %d: self-check failed on a Euclidean space", seed)
		}
		cs.calls = 0
		if offered := checkNearestMatchesScan(t, sp, ix, seed+100); cs.calls >= offered {
			t.Errorf("seed %d: index pruned nothing — the test exercised no bounds", seed)
		}
	}
}

func TestIndexNearestRandomGraphMetric(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := randGraphMetric(t, 120, seed)
		ix := NewIndex(m, IndexOptions{Pivots: 6})
		if !ix.ok {
			t.Fatalf("seed %d: self-check failed on a shortest-path metric", seed)
		}
		checkNearestMatchesScan(t, m, ix, seed+200)
	}
}

// brokenSpace violates the triangle inequality on one pair.
type brokenSpace struct{ Matrix }

func TestIndexSelfCheckCatchesNonMetric(t *testing.T) {
	n := 24
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 + r.Float64() // [1,2): triangle holds for any triple
			m[i][j], m[j][i] = d, d
		}
	}
	// The self-check covers (point, pivot, pivot) triples, so plant the
	// violation on an edge of point 0 — the deterministic first pivot. The
	// far endpoint then wins the farthest-first sweep and becomes a pivot
	// itself, and pairing it with any third pivot exposes the excess.
	m[0][5], m[5][0] = 100, 100
	cs := &countingSpace{p: brokenSpace{m}.Matrix}
	ix := NewIndex(cs, IndexOptions{Pivots: 4})
	if ix.ok {
		t.Fatal("self-check accepted a triangle-violating space")
	}
	// Degraded mode must still be exact: full-scan fallback, no pruning.
	cs.calls = 0
	if offered := checkNearestMatchesScan(t, m, ix, 77); cs.calls != offered {
		t.Fatalf("degraded index evaluated %d of %d candidates", cs.calls, offered)
	}
}

// TestIndexProbeIsSound: a pivot column that proves d(i,j) >= thresh is
// never wrong, and the bounds are not vacuous.
func TestIndexProbeIsSound(t *testing.T) {
	pts := tiePoints(200, 3, 11)
	sp := NewPoints(pts)
	ix := NewIndex(sp, IndexOptions{Pivots: 10})
	if !ix.ok {
		t.Fatal("self-check failed")
	}
	r := rand.New(rand.NewSource(12))
	pruned := 0
	for trial := 0; trial < 2000; trial++ {
		i, j := r.Intn(200), r.Intn(200)
		d := sp.Dist(i, j)
		thresh := d * (0.2 + 1.6*r.Float64())
		for a := 0; a < ix.m; a++ {
			if !ix.probe(i*ix.m, j*ix.m, a, thresh) {
				continue
			}
			pruned++
			// Soundness: a proof at thresh promises d >= thresh (the scan
			// it serves only needs strict improvements d < thresh).
			if d < thresh {
				t.Fatalf("pivot %d proved (%d,%d) >= %v but d = %v", a, i, j, thresh, d)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no candidate was ever pruned; the bounds are vacuous")
	}
}

func TestIndexDeterministicPivots(t *testing.T) {
	pts := tiePoints(100, 3, 41)
	a := NewIndex(NewPoints(pts), IndexOptions{Pivots: 8})
	b := NewIndex(NewPoints(pts), IndexOptions{Pivots: 8})
	pa, pb := a.pivots, b.pivots
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("pivot selection not deterministic: %v vs %v", pa, pb)
		}
	}
}
