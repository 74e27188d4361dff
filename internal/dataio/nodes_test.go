package dataio

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestReadNodesCSVBasic(t *testing.T) {
	in := `a,0.5,0,0
a,0.5,1,0
b,1,10,10
`
	g, nodes, err := ReadNodesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || g.N() != 3 {
		t.Fatalf("nodes=%d ground=%d", len(nodes), g.N())
	}
	if len(nodes[0].Support) != 2 || len(nodes[1].Support) != 1 {
		t.Fatalf("supports: %v %v", nodes[0].Support, nodes[1].Support)
	}
	if math.Abs(nodes[0].Prob[0]-0.5) > 1e-12 {
		t.Fatalf("prob = %v", nodes[0].Prob)
	}
}

func TestReadNodesCSVNormalizes(t *testing.T) {
	in := "a,2,0,0\na,6,1,1\n"
	_, nodes, err := ReadNodesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nodes[0].Prob[0]-0.25) > 1e-12 || math.Abs(nodes[0].Prob[1]-0.75) > 1e-12 {
		t.Fatalf("probs = %v", nodes[0].Prob)
	}
}

func TestReadNodesCSVHeader(t *testing.T) {
	in := "id,prob,x,y\na,1,0,0\n"
	_, nodes, err := ReadNodesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d", len(nodes))
	}
}

func TestReadNodesCSVErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"a,1\n",                // too few columns
		"a,1,0,0\na,bad,1,1\n", // bad prob after data
		"a,-1,0,0\n",           // negative prob
		"a,1,x,0\n",            // bad coordinate
		"a,1,0,0\nb,1,1,1,2\n", // ragged dims
		"id,prob,x\n",          // header only
	}
	for i, c := range cases {
		if _, _, err := ReadNodesCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestSplitNodesRoundRobin(t *testing.T) {
	in := "a,1,0,0\nb,1,1,1\nc,1,2,2\n"
	_, nodes, err := ReadNodesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sites := SplitNodesRoundRobin(nodes, 2)
	if len(sites) != 2 || len(sites[0]) != 2 || len(sites[1]) != 1 {
		t.Fatalf("split = %d/%d", len(sites[0]), len(sites[1]))
	}
	if len(SplitNodesRoundRobin(nodes, 0)) != 1 {
		t.Fatal("s=0 should clamp")
	}
	if got := SplitNodesRoundRobin(nodes[:1], 9); len(got) != 1 {
		t.Fatal("empty tails should drop")
	}
}

// FuzzReadNodesCSV feeds arbitrary bytes to the node loader behind CSV
// uploads with ?kind=uncertain and dpc-site -uncertain: any input it
// accepts must hold at least one node over a non-empty ground set of one
// dimension (at least 1) with finite coordinates, and every node must pass
// Validate against that ground set.
//
//	go test ./internal/dataio -run xxx -fuzz FuzzReadNodesCSV -fuzztime 60s
func FuzzReadNodesCSV(f *testing.F) {
	for _, seed := range []string{
		"a,0.5,0,0\na,0.5,1,0\nb,1,10,10\n", "id,prob,x\na,2,1\na,6,2\n", "a,1,1,2\nb,1,3\n",
		"a,0,1\n", "a,1e308,1\na,1e308,2\n", "a,1,NaN\n", "a,1e-320,1\r\n", "\"a\",1,-0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, nodes, err := ReadNodesCSV(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(nodes) == 0 || g.N() == 0 || len(g.Pts[0]) == 0 {
			t.Fatalf("accepted %q as %d nodes over %d ground points", b, len(nodes), g.N())
		}
		for i, p := range g.Pts {
			if len(p) != len(g.Pts[0]) {
				t.Fatalf("accepted %q with ground point %d of dimension %d, want %d", b, i, len(p), len(g.Pts[0]))
			}
			for _, x := range p {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted %q with ground point %d holding %g", b, i, x)
				}
			}
		}
		for j, nd := range nodes {
			if err := nd.Validate(g); err != nil {
				t.Fatalf("accepted %q with node %d failing Validate: %v", b, j, err)
			}
		}
	})
}
