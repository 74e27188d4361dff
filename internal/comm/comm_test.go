package comm

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dpc/internal/geom"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

func TestPointsMsgRoundTrip(t *testing.T) {
	in := PointsMsg{Pts: []metric.Point{{1, 2}, {3, 4}, {-5, 0.25}}}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// One-byte uvarints for n and dim, then 3 rows of 2 f64 coordinates.
	if want := 1 + 1 + 3*2*8; len(b) != want {
		t.Fatalf("encoded size = %d, want %d", len(b), want)
	}
	var out PointsMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v != %v", in, out)
	}
}

func TestPointsMsgEmpty(t *testing.T) {
	b, err := PointsMsg{}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out PointsMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if len(out.Pts) != 0 {
		t.Fatal("expected empty")
	}
}

func TestPointsMsgRagged(t *testing.T) {
	if _, err := (PointsMsg{Pts: []metric.Point{{1}, {1, 2}}}).MarshalBinary(); err == nil {
		t.Fatal("ragged points accepted")
	}
}

func TestWeightedPointsMsgRoundTrip(t *testing.T) {
	in := WeightedPointsMsg{Pts: []metric.Point{{1, 2, 3}}, W: []float64{42}}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// n, dim, the weight-form flag, then one row: 3 f64 coordinates and the
	// integral weight 42 as a one-byte uvarint.
	if want := 1 + 1 + 1 + (3*8 + 1); len(b) != want {
		t.Fatalf("encoded size = %d, want %d", len(b), want)
	}
	var out WeightedPointsMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round trip mismatch")
	}
	if _, err := (WeightedPointsMsg{Pts: []metric.Point{{1}}, W: nil}).MarshalBinary(); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

func TestHullMsgRoundTrip(t *testing.T) {
	in := HullMsg{V: []geom.Vertex{{Q: 0, C: 10}, {Q: 7, C: 0.5}}}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// n, then 2 vertices of a one-byte uvarint budget and an f64 cost.
	if want := 1 + 2*(1+8); len(b) != want {
		t.Fatalf("encoded size = %d, want %d", len(b), want)
	}
	var out HullMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round trip mismatch")
	}
}

func TestHullsMsgRoundTrip(t *testing.T) {
	in := HullsMsg{Hulls: [][]geom.Vertex{
		{{Q: 0, C: 3}},
		{{Q: 0, C: 9}, {Q: 4, C: 1}},
		{},
	}}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out HullsMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if len(out.Hulls) != 3 || len(out.Hulls[1]) != 2 || out.Hulls[1][1].Q != 4 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestPivotMsgRoundTrip(t *testing.T) {
	in := PivotMsg{I0: -1, Q0: 9, L0: 2.5, Rank: 14, Exhausted: true, Tau: 0.125}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out PivotMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestFloat64sMsgRoundTrip(t *testing.T) {
	in := Float64sMsg{Vals: []float64{1, -2, 0.5}}
	b, _ := in.MarshalBinary()
	var out Float64sMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round trip mismatch")
	}
}

func TestNodesMsgRoundTrip(t *testing.T) {
	in := NodesMsg{Nodes: []NodeWire{
		{Support: []uint32{0, 3}, Prob: []float64{0.25, 0.75}},
		{Support: []uint32{1}, Prob: []float64{1}},
	}}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Node count, then per node its support size and (one-byte uvarint
	// index, f64 probability) pairs.
	if want := 1 + (1 + 2*(1+8)) + (1 + 1*(1+8)); len(b) != want {
		t.Fatalf("encoded size = %d, want %d", len(b), want)
	}
	var out NodesMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round trip mismatch")
	}
	if _, err := (NodesMsg{Nodes: []NodeWire{{Support: []uint32{1}, Prob: nil}}}).MarshalBinary(); err == nil {
		t.Fatal("mismatched node accepted")
	}
}

func TestCollapsedMsgRoundTrip(t *testing.T) {
	in := CollapsedMsg{
		Y:   []metric.Point{{1, 1}, {2, 2}},
		Ell: []float64{0.1, 0.2},
		W:   []float64{3, 4},
	}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out CollapsedMsg
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("round trip mismatch")
	}
}

func TestTruncatedMessagesRejected(t *testing.T) {
	in := PointsMsg{Pts: []metric.Point{{1, 2}}}
	b, _ := in.MarshalBinary()
	for cut := 1; cut < len(b); cut++ {
		var out PointsMsg
		if err := out.UnmarshalBinary(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	var out PointsMsg
	if err := out.UnmarshalBinary(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: Float64sMsg round-trips arbitrary vectors.
func TestFloat64sQuick(t *testing.T) {
	f := func(vals []float64) bool {
		in := Float64sMsg{Vals: vals}
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out Float64sMsg
		if err := out.UnmarshalBinary(b); err != nil {
			return false
		}
		if len(out.Vals) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN != NaN; compare bit patterns via encoding again.
			a, b := in.Vals[i], out.Vals[i]
			if a != b && !(a != a && b != b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// sitePayloads builds a loopback transport whose site i answers round r
// with fn(i, r)'s encoding.
func sitePayloads(t *testing.T, s int, parallel bool, fn func(site, round int) Payload) *Network {
	t.Helper()
	handlers := make([]transport.Handler, s)
	for i := 0; i < s; i++ {
		i := i
		handlers[i] = func(round int, in []byte) ([]byte, error) {
			return Encode(fn(i, round))
		}
	}
	return NewOverCtx(context.Background(), transport.NewLoopback(handlers, parallel))
}

func TestNetworkAccounting(t *testing.T) {
	// Sizes from the format: a count (and a dimension) of one uvarint byte
	// each, then 8 bytes per float.
	const (
		ptsB  = 1 + 1 + 2*8 // one 2-dim point
		oneB  = 1 + 1*8     // Float64sMsg of one value
		twoB  = 1 + 2*8     // Float64sMsg of two values
		sites = 3
	)
	payload := PointsMsg{Pts: []metric.Point{{1, 2}}}
	nw := sitePayloads(t, sites, true, func(site, round int) Payload {
		if round == 0 {
			return payload
		}
		if site == 0 {
			return nil // empty message
		}
		return Float64sMsg{Vals: []float64{3}}
	})
	if err := nw.Broadcast(Float64sMsg{Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.SiteRound(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Send(1, Float64sMsg{Vals: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	up, err := nw.SiteRound()
	if err != nil {
		t.Fatal(err)
	}
	if up[0] != nil {
		t.Fatalf("site 0 reply = %v, want nil", up[0])
	}
	r := nw.Report()
	if r.Rounds != 2 {
		t.Fatalf("rounds = %d", r.Rounds)
	}
	if r.DownBytes != oneB*sites+twoB {
		t.Fatalf("down = %d, want %d", r.DownBytes, oneB*sites+twoB)
	}
	if r.UpBytes != ptsB*sites+oneB*(sites-1) {
		t.Fatalf("up = %d, want %d", r.UpBytes, ptsB*sites+oneB*(sites-1))
	}
	if r.RoundUp[0] != ptsB*sites || r.RoundUp[1] != oneB*(sites-1) {
		t.Fatalf("per-round up = %v", r.RoundUp)
	}
	if r.RoundDown[0] != oneB*sites || r.RoundDown[1] != twoB {
		t.Fatalf("per-round down = %v", r.RoundDown)
	}
	if r.TotalBytes() != r.UpBytes+r.DownBytes {
		t.Fatal("TotalBytes mismatch")
	}
	if r.Sites != sites {
		t.Fatalf("sites = %d", r.Sites)
	}
}

// TestNetworkAccountingBackendInvariant: the byte accounting must not
// depend on the wire — loopback and real TCP sockets report identically.
func TestNetworkAccountingBackendInvariant(t *testing.T) {
	const s = 3
	newHandlers := func() []transport.Handler {
		handlers := make([]transport.Handler, s)
		for i := 0; i < s; i++ {
			i := i
			handlers[i] = func(round int, in []byte) ([]byte, error) {
				if round == 0 {
					return Encode(PointsMsg{Pts: []metric.Point{{float64(i), 2}, {3, 4}}})
				}
				// Echo-size reply: proves the downstream arrived intact.
				return Encode(Float64sMsg{Vals: make([]float64, len(in))})
			}
		}
		return handlers
	}
	run := func(tr transport.Transport) Report {
		nw := NewOverCtx(context.Background(), tr)
		if _, err := nw.SiteRound(); err != nil {
			t.Fatal(err)
		}
		if err := nw.Broadcast(PivotMsg{I0: 1, Q0: 2, L0: 3, Rank: 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.SiteRound(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return nw.Report()
	}
	loop := run(transport.NewLoopback(newHandlers(), true))
	tcpTr, err := transport.NewLocalTCP(newHandlers())
	if err != nil {
		t.Fatal(err)
	}
	tcp := run(tcpTr)
	if loop.UpBytes != tcp.UpBytes || loop.DownBytes != tcp.DownBytes || loop.Rounds != tcp.Rounds {
		t.Fatalf("loopback (%d up, %d down, %d rounds) != tcp (%d up, %d down, %d rounds)",
			loop.UpBytes, loop.DownBytes, loop.Rounds, tcp.UpBytes, tcp.DownBytes, tcp.Rounds)
	}
	if !reflect.DeepEqual(loop.RoundUp, tcp.RoundUp) || !reflect.DeepEqual(loop.RoundDown, tcp.RoundDown) {
		t.Fatalf("per-round accounting differs: %v/%v vs %v/%v",
			loop.RoundUp, loop.RoundDown, tcp.RoundUp, tcp.RoundDown)
	}
}

func TestNetworkParallelExecution(t *testing.T) {
	var counter int64
	handlers := make([]transport.Handler, 8)
	for i := range handlers {
		handlers[i] = func(round int, in []byte) ([]byte, error) {
			atomic.AddInt64(&counter, 1)
			return nil, nil
		}
	}
	nw := NewOverCtx(context.Background(), transport.NewLoopback(handlers, true))
	if _, err := nw.SiteRound(); err != nil {
		t.Fatal(err)
	}
	if counter != 8 {
		t.Fatalf("ran %d sites", counter)
	}
	if nw.Report().UpBytes != 0 {
		t.Fatal("nil payloads should cost nothing")
	}
}

func TestNetworkSequentialMode(t *testing.T) {
	order := make([]int, 0, 4)
	handlers := make([]transport.Handler, 4)
	for i := range handlers {
		i := i
		handlers[i] = func(round int, in []byte) ([]byte, error) {
			order = append(order, i) // safe: sequential mode
			return nil, nil
		}
	}
	nw := NewOverCtx(context.Background(), transport.NewLoopback(handlers, false))
	if _, err := nw.SiteRound(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
}

func TestSendPanicsOnBadSite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw := NewOverCtx(context.Background(), transport.NewLoopback(make([]transport.Handler, 2), false))
	nw.Send(5, nil)
}

func TestSplitMulti(t *testing.T) {
	a := Float64sMsg{Vals: []float64{1}}
	b := PointsMsg{Pts: []metric.Point{{1, 2}}}
	enc, err := (Multi{Parts: []Payload{a, b}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitMulti(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	var a2 Float64sMsg
	if err := a2.UnmarshalBinary(parts[0]); err != nil {
		t.Fatal(err)
	}
	var b2 PointsMsg
	if err := b2.UnmarshalBinary(parts[1]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, a2) || !reflect.DeepEqual(b, b2) {
		t.Fatal("split round trip mismatch")
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := SplitMulti(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestMultiPayloadSize(t *testing.T) {
	a := Float64sMsg{Vals: []float64{1}}      // count + one f64
	bm := PointsMsg{Pts: []metric.Point{{1}}} // n + dim + one f64
	m := Multi{Parts: []Payload{a, bm}}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The part count, then each part behind a one-byte uvarint length.
	if want := 1 + (1 + (1 + 8)) + (1 + (1 + 1 + 8)); len(b) != want {
		t.Fatalf("multi size = %d, want %d", len(b), want)
	}
}
