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
		return newReducer(g, Config{K: 2, T: 1, Variant: OneRoundShipDists}.withDefaults(), Median)
	}
	cfg := Config{K: 1, T: 1}
	if name == "centerg/1round" {
		cfg.Variant = OneRoundShipDists
	}
	cfg = cfg.withDefaults()
	grid, err := cfg.check(g, CenterG)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newCGReducer(g, cfg, grid)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// shippedNode is the payload the named reducer expects from one site,
// carrying nd as its only outlier node and no centers.
func shippedNode(t testing.TB, name string, g *Ground, nd comm.NodeWire) []byte {
	var centers comm.Payload = comm.WeightedPointsMsg{}
	if name == "naive" {
		centers = comm.CollapsedMsg{}
	}
	return shipped(t, name, g, centers, comm.NodesMsg{Nodes: []comm.NodeWire{nd}})
}

// shipped is the payload the named reducer expects from one site whose
// preclustering is centers and the outlier nodes outs: in a 1-round
// center-g run, that pair at every tau behind zero costs.
func shipped(t testing.TB, name string, g *Ground, centers comm.Payload, outs comm.NodesMsg) []byte {
	parts := []comm.Payload{centers, outs}
	if name == "centerg/1round" {
		taus := len(nodeReducer(t, name, g).(*cgReducer).grid)
		parts = []comm.Payload{comm.Float64sMsg{Vals: make([]float64, taus)}}
		for range taus {
			parts = append(parts, centers, outs)
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

// collapsedReducers are the coordinator halves of Algorithm 3's 2-round
// protocol, whose sites ship one collapsed precluster (comm.CollapsedMsg).
var collapsedReducers = map[string]Objective{"u-median": Median, "u-means": Means, "u-centerpp": CenterPP}

// collapsedReducer builds a fresh 2-round coordinator half for obj over g.
func collapsedReducer(g *Ground, obj Objective) *reducer {
	return newReducer(g, Config{K: 2, T: 1}.withDefaults(), obj)
}

// TestReducersRejectBadCollapsed: a collapsed precluster whose point has
// another dimension than the ground set, a coordinate, weight or collapse
// cost that is not finite and non-negative, or a cost bound that overflows
// fails the 2-round coordinator's Add with an error. The wrong dimension
// used to panic Solve; a NaN weight gave no centers at cost +Inf, a -1e9
// weight no centers at cost 0 (one center at radius 0 for center-pp), and
// a NaN collapse cost solved silently. A well-formed precluster is
// accepted and solves at a finite cost.
func TestReducersRejectBadCollapsed(t *testing.T) {
	g := reducerGround()
	valid := func() comm.CollapsedMsg {
		return comm.CollapsedMsg{Y: []metric.Point{{0, 0}, {1, 0}, {0, 1}}, Ell: []float64{0, 0.5, 0}, W: []float64{3, 1, 2}}
	}
	rows := []struct {
		name string
		edit func(m *comm.CollapsedMsg)
		ok   bool
	}{
		{"valid", func(*comm.CollapsedMsg) {}, true},
		{"points of another dimension", func(m *comm.CollapsedMsg) { m.Y = []metric.Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 2}} }, false},
		{"NaN coordinate", func(m *comm.CollapsedMsg) { m.Y[1] = metric.Point{math.NaN(), 0} }, false},
		{"NaN weight", func(m *comm.CollapsedMsg) { m.W[0] = math.NaN() }, false},
		{"+Inf weight", func(m *comm.CollapsedMsg) { m.W[0] = math.Inf(1) }, false},
		{"-1e9 weight", func(m *comm.CollapsedMsg) { m.W[0] = -1e9 }, false},
		{"NaN collapse cost", func(m *comm.CollapsedMsg) { m.Ell[1] = math.NaN() }, false},
		{"negative collapse cost", func(m *comm.CollapsedMsg) { m.Ell[1] = -1 }, false},
		{"overflowing collapse cost", func(m *comm.CollapsedMsg) { m.Ell[1] = math.MaxFloat64 }, false},
		{"overflowing weight", func(m *comm.CollapsedMsg) { m.W[0] = math.MaxFloat64 }, false},
	}
	for _, row := range rows {
		msg := valid()
		row.edit(&msg)
		b, err := comm.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for name, obj := range collapsedReducers {
			r := collapsedReducer(g, obj)
			err := r.Add(b)
			if (err == nil) != row.ok {
				t.Errorf("%s, %s: Add returned %v, want ok=%v", name, row.name, err, row.ok)
				continue
			}
			if err == nil {
				var res protocol.Result
				r.Solve(&res)
				if len(res.Centers) == 0 || math.IsNaN(res.CoordinatorCost) || math.IsInf(res.CoordinatorCost, 0) {
					t.Errorf("%s, %s: solved to %d centers at cost %g", name, row.name, len(res.Centers), res.CoordinatorCost)
				}
			}
		}
	}
}

// TestCenterGReducerRejectsBadCenters: Algorithm 4's coordinator admits
// a site's precluster centers as Algorithm 3's does (protocol.Union.Admit,
// dimension fixed by the ground set, the ground points in the overflow
// bound), and an outlier node at its probability mass. 3-D or 1-D centers
// used to panic Solve in metric.L2, a NaN weight gave no centers at cost 0,
// a -1e9 weight was accepted, a NaN coordinate came back as the center
// [NaN 0], and a center at 1e200 or a node of overflowing mass was
// accepted. A well-formed preclustering solves at a finite radius.
func TestCenterGReducerRejectsBadCenters(t *testing.T) {
	g := reducerGround()
	outs := comm.NodesMsg{Nodes: []comm.NodeWire{{Support: []uint32{0, 2}, Prob: []float64{0.5, 0.5}}}}
	rows := []struct {
		name string
		edit func(m *comm.WeightedPointsMsg, outs *comm.NodesMsg)
		ok   bool
	}{
		{"valid", func(*comm.WeightedPointsMsg, *comm.NodesMsg) {}, true},
		{"3-D centers", func(m *comm.WeightedPointsMsg, _ *comm.NodesMsg) { m.Pts = []metric.Point{{0, 0, 0}, {1, 0, 0}} }, false},
		{"1-D centers", func(m *comm.WeightedPointsMsg, _ *comm.NodesMsg) { m.Pts = []metric.Point{{0}, {1}} }, false},
		{"NaN weight", func(m *comm.WeightedPointsMsg, _ *comm.NodesMsg) { m.W[0] = math.NaN() }, false},
		{"-1e9 weight", func(m *comm.WeightedPointsMsg, _ *comm.NodesMsg) { m.W[0] = -1e9 }, false},
		{"NaN coordinate", func(m *comm.WeightedPointsMsg, _ *comm.NodesMsg) { m.Pts[1] = metric.Point{math.NaN(), 0} }, false},
		{"center at 1e200", func(m *comm.WeightedPointsMsg, _ *comm.NodesMsg) { m.Pts[1] = metric.Point{1e200, 0} }, false},
		{"overflowing node mass", func(_ *comm.WeightedPointsMsg, o *comm.NodesMsg) {
			o.Nodes = []comm.NodeWire{{Support: []uint32{1, 2}, Prob: []float64{math.MaxFloat64, math.MaxFloat64}}}
		}, false},
	}
	for _, row := range rows {
		for _, name := range nodeReducers[1:] {
			msg, o := comm.WeightedPointsMsg{Pts: []metric.Point{{0, 0}, {1, 0}}, W: []float64{3, 2}}, outs
			row.edit(&msg, &o)
			r := nodeReducer(t, name, g)
			err := r.Add(shipped(t, name, g, msg, o))
			if (err == nil) != row.ok {
				t.Errorf("%s, %s: Add returned %v, want ok=%v", name, row.name, err, row.ok)
				continue
			}
			if err == nil {
				var res protocol.Result
				r.Solve(&res)
				if len(res.Centers) == 0 || math.IsNaN(res.CoordinatorCost) || math.IsInf(res.CoordinatorCost, 0) {
					t.Errorf("%s, %s: solved to %d centers at radius %g", name, row.name, len(res.Centers), res.CoordinatorCost)
				}
			}
		}
	}
}

// FuzzReducerAdd feeds arbitrary bytes, as one site's precluster payload, to
// every coordinator half that decodes shipped outlier nodes and to
// Algorithm 3's 2-round halves: Add must return an error or succeed, never
// panic, and a payload any half accepts must solve without a panic at a
// finite cost or radius. Seeded with the empty-support and
// past-the-ground-set nodes that used to panic, and with a collapsed
// precluster of the wrong dimension.
//
//	go test ./internal/uncertain -run xxx -fuzz FuzzReducerAdd -fuzztime 60s
func FuzzReducerAdd(f *testing.F) {
	g := reducerGround()
	for _, name := range nodeReducers {
		for _, nd := range []comm.NodeWire{{}, {Support: []uint32{7}, Prob: []float64{1}}} {
			f.Add(shippedNode(f, name, g, nd))
		}
	}
	for _, y := range [][]metric.Point{{{0, 0}, {0, 1}}, {{0, 0, 0}, {0, 1, 2}}} {
		b, err := comm.Encode(comm.CollapsedMsg{Y: y, Ell: []float64{0, 1}, W: []float64{2, math.NaN()}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		solvable := map[string]protocol.Reducer{}
		for _, name := range nodeReducers {
			solvable[name] = nodeReducer(t, name, g)
		}
		for name, obj := range collapsedReducers {
			solvable[name] = collapsedReducer(g, obj)
		}
		for name, r := range solvable {
			if r.Add(b) != nil {
				continue
			}
			var res protocol.Result
			r.Solve(&res)
			if math.IsNaN(res.CoordinatorCost) || math.IsInf(res.CoordinatorCost, 0) {
				t.Fatalf("%s: accepted payload solved at cost %g", name, res.CoordinatorCost)
			}
		}
	})
}
