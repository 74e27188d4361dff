package uncertain

import (
	"math"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// reducerGround is the fixed ground set of the coordinator-side tests: three
// points, so a support index of 3 or more is past it.
func reducerGround() *Ground {
	return &Ground{Pts: []metric.Point{{0, 0}, {1, 0}, {0, 1}}}
}

// nodeReducers names the coordinator halves whose sites ship whole outlier
// nodes: Algorithm 3's naive 1-round variant and Algorithm 4 in its 2-round
// and 1-round forms.
var nodeReducers = []string{"naive", "centerg/2round", "centerg/1round"}

// nodeReducer builds a fresh coordinator half of the named protocol over g.
func nodeReducer(t testing.TB, name string, g *Ground) protocol.Reducer {
	if name == "naive" {
		return &reducer{g: g, cfg: Config{Variant: OneRoundShipDists}.withDefaults(), obj: Median}
	}
	cfg := CenterGConfig{K: 1, T: 1, OneRound: name == "centerg/1round"}.withDefaults()
	grid, err := cfg.validate(g)
	if err != nil {
		t.Fatal(err)
	}
	return newCGReducer(g, cfg, grid)
}

// shippedNode is the payload the named reducer expects from one site,
// carrying nd as its only outlier node and no centers.
func shippedNode(t testing.TB, name string, g *Ground, nd comm.NodeWire) []byte {
	outs := comm.NodesMsg{Nodes: []comm.NodeWire{nd}}
	parts := []comm.Payload{comm.WeightedPointsMsg{}, outs}
	switch name {
	case "naive":
		parts[0] = comm.CollapsedMsg{}
	case "centerg/1round":
		taus := len(nodeReducer(t, name, g).(*cgReducer).grid)
		parts = []comm.Payload{comm.Float64sMsg{Vals: make([]float64, taus)}}
		for range taus {
			parts = append(parts, comm.WeightedPointsMsg{}, outs)
		}
	}
	b, err := comm.Encode(comm.Multi{Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReducersRejectBadNodes: an outlier node a hostile or buggy site ships
// with an empty support, a ground index past |P|, or a probability that is
// not finite and positive fails the coordinator's Add with an error. The
// empty support and the out-of-range index used to panic both reducers
// (the naive one on OneMedian's -1, the center-g one indexing the ground
// set). A well-formed node is accepted.
func TestReducersRejectBadNodes(t *testing.T) {
	g := reducerGround()
	rows := []struct {
		name string
		nd   comm.NodeWire
		ok   bool
	}{
		{"valid", comm.NodeWire{Support: []uint32{0, 2}, Prob: []float64{0.5, 0.5}}, true},
		{"empty support", comm.NodeWire{}, false},
		{"index past the ground set", comm.NodeWire{Support: []uint32{7}, Prob: []float64{1}}, false},
		{"index 2^32-1", comm.NodeWire{Support: []uint32{math.MaxUint32}, Prob: []float64{1}}, false},
		{"zero probability", comm.NodeWire{Support: []uint32{0}, Prob: []float64{0}}, false},
		{"negative probability", comm.NodeWire{Support: []uint32{0}, Prob: []float64{-1}}, false},
		{"NaN probability", comm.NodeWire{Support: []uint32{0, 1}, Prob: []float64{math.NaN(), 1}}, false},
		{"infinite probability", comm.NodeWire{Support: []uint32{1}, Prob: []float64{math.Inf(1)}}, false},
	}
	for _, row := range rows {
		for _, name := range nodeReducers {
			err := nodeReducer(t, name, g).Add(shippedNode(t, name, g, row.nd))
			if (err == nil) != row.ok {
				t.Errorf("%s, %s: Add returned %v, want ok=%v", name, row.name, err, row.ok)
			}
		}
	}
	// Finite probabilities whose expected distances all overflow leave the
	// naive reducer no 1-median to collapse the node to.
	huge := comm.NodeWire{Support: []uint32{1, 2}, Prob: []float64{math.MaxFloat64, math.MaxFloat64}}
	if err := nodeReducer(t, "naive", g).Add(shippedNode(t, "naive", g, huge)); err == nil {
		t.Errorf("naive: Add accepted a node with no finite 1-median")
	}
}

// FuzzReducerAdd feeds arbitrary bytes, as one site's precluster payload, to
// every coordinator half that decodes shipped outlier nodes: Add must return
// an error or succeed, never panic. Seeded with the empty-support and
// past-the-ground-set nodes that used to.
//
//	go test ./internal/uncertain -run xxx -fuzz FuzzReducerAdd -fuzztime 60s
func FuzzReducerAdd(f *testing.F) {
	g := reducerGround()
	for _, name := range nodeReducers {
		for _, nd := range []comm.NodeWire{{}, {Support: []uint32{7}, Prob: []float64{1}}} {
			f.Add(shippedNode(f, name, g, nd))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, name := range nodeReducers {
			_ = nodeReducer(t, name, g).Add(b)
		}
	})
}
