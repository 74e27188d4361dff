package dataio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dpc/internal/metric"
)

func TestReadPointsCSVBasic(t *testing.T) {
	pts, err := ReadPointsCSV(strings.NewReader("1,2\n3,4\n5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || !pts[1].Equal(metric.Point{3, 4}) {
		t.Fatalf("pts = %v", pts)
	}
}

func TestReadPointsCSVHeader(t *testing.T) {
	pts, err := ReadPointsCSV(strings.NewReader("x,y\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("pts = %v", pts)
	}
}

func TestReadPointsCSVErrors(t *testing.T) {
	cases := []string{
		"",              // empty
		"x,y\n",         // header only
		"1,2\nfoo,4\n",  // non-numeric after data
		"1,2\n3\n",      // ragged
		"1,2\nNaN,4\n",  // NaN
		"1,2\n+Inf,4\n", // Inf
	}
	for i, c := range cases {
		if _, err := ReadPointsCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in := []metric.Point{{1.5, -2}, {0.25, 1e9}}
	var buf bytes.Buffer
	if err := WritePointsCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadPointsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0].Equal(in[0]) || !out[1].Equal(in[1]) {
		t.Fatalf("round trip: %v", out)
	}
}

func TestSplitRoundRobin(t *testing.T) {
	pts := []metric.Point{{0}, {1}, {2}, {3}, {4}}
	sites := SplitRoundRobin(pts, 2)
	if len(sites) != 2 || len(sites[0]) != 3 || len(sites[1]) != 2 {
		t.Fatalf("split = %v", sites)
	}
	// More sites than points: empty tails dropped.
	sites = SplitRoundRobin(pts[:2], 5)
	if len(sites) != 2 {
		t.Fatalf("split = %v", sites)
	}
	if len(SplitRoundRobin(pts, 0)) != 1 {
		t.Fatal("s=0 should clamp to 1")
	}
}

func TestAssign(t *testing.T) {
	pts := []metric.Point{{0}, {1}, {10}, {100}}
	centers := []metric.Point{{0}, {10}}
	a := Assign(pts, centers, 1, false)
	if a.Center[0] != 0 || a.Center[1] != 0 || a.Center[2] != 1 {
		t.Fatalf("assign = %v", a.Center)
	}
	if a.Center[3] != -1 {
		t.Fatalf("far point should be outlier: %v", a.Center)
	}
	if len(a.Outliers) != 1 {
		t.Fatalf("dropped = %v", a.Outliers)
	}
	// Squared mode changes distances but not this assignment.
	sq := Assign(pts, centers, 0, true)
	if sq.Dist[1] != 1 { // squared distance of point 1 to center 0
		t.Fatalf("squared dist = %g", sq.Dist[1])
	}
}

func TestWriteAssignmentCSV(t *testing.T) {
	a := Assign([]metric.Point{{0}, {5}}, []metric.Point{{0}}, 1, false)
	var buf bytes.Buffer
	if err := WriteAssignmentCSV(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "index,center,distance\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1,-1,5") {
		t.Fatalf("outlier row missing: %q", out)
	}
}

// FuzzReadPointsCSV feeds arbitrary bytes to the loader dpc-site runs on
// its -in file: any input it accepts must come back non-empty, rectangular
// (one dimension of at least 1 for every point) and finite, and must
// survive WritePointsCSV and a second read unchanged.
//
//	go test ./internal/dataio -run xxx -fuzz FuzzReadPointsCSV -fuzztime 60s
func FuzzReadPointsCSV(f *testing.F) {
	for _, seed := range []string{"1,2\n3,4\n", "x,y\n1,2\n", "1,2\n3\n", "1,NaN\n", "\"1\",2e308\n", "-0,1e-320\r\n"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pts, err := ReadPointsCSV(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(pts) == 0 || len(pts[0]) == 0 {
			t.Fatalf("accepted %q as %d points of dimension %d", b, len(pts), len(pts[0]))
		}
		for i, p := range pts {
			if len(p) != len(pts[0]) {
				t.Fatalf("accepted %q with point %d of dimension %d, want %d", b, i, len(p), len(pts[0]))
			}
			for _, x := range p {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted %q with point %d holding %g", b, i, x)
				}
			}
		}
		var buf bytes.Buffer
		if err := WritePointsCSV(&buf, pts); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPointsCSV(&buf)
		if err != nil || len(again) != len(pts) {
			t.Fatalf("re-reading %d written points: %d points, %v", len(pts), len(again), err)
		}
		for i := range pts {
			if !again[i].Equal(pts[i]) {
				t.Fatalf("point %d wrote and re-read as %v, want %v", i, again[i], pts[i])
			}
		}
	})
}
