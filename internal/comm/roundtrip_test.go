package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dpc/internal/geom"
	"dpc/internal/metric"
)

// wireTypes enumerates every payload type with representative and
// degenerate values, plus a decoder that re-encodes — the round-trip
// contract is encode(decode(encode(m))) == encode(m) for every m. The
// weighted types carry both weight forms: integral weights (uvarints, up to
// the last exact one, 2^53-1) and every kind of weight that must stay a raw
// f64 — fractional, -0, NaN, +-Inf, 2^53 — bit for bit.
type wireType struct {
	name   string
	msgs   []Payload
	decode func([]byte) (Payload, error)
}

func wireTypes() []wireType {
	return []wireType{
		{
			name: "PointsMsg",
			msgs: []Payload{
				PointsMsg{},
				PointsMsg{Pts: []metric.Point{{1, 2}, {3, 4}, {-5, 0.25}}},
				PointsMsg{Pts: []metric.Point{{7}}},
			},
			decode: func(b []byte) (Payload, error) {
				var m PointsMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "WeightedPointsMsg",
			msgs: []Payload{
				WeightedPointsMsg{},
				WeightedPointsMsg{Pts: []metric.Point{{1, 2, 3}}, W: []float64{42}},
				WeightedPointsMsg{Pts: []metric.Point{{1, 2}}, W: []float64{0.5}},
				WeightedPointsMsg{Pts: []metric.Point{{1}, {2}}, W: []float64{3, math.Copysign(0, -1)}},
				WeightedPointsMsg{Pts: []metric.Point{{1}, {2}, {3}}, W: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}},
				WeightedPointsMsg{Pts: []metric.Point{{1}}, W: []float64{1 << 53}},
				WeightedPointsMsg{Pts: []metric.Point{{}, {}}, W: []float64{1, 2}},
				WeightedPointsMsg{Pts: []metric.Point{{1.5, -2.25, 3e9}, {0.125, 4, -5}, {6, 7, 8.5}}, W: []float64{0, 2000, 1<<53 - 1}},
			},
			decode: func(b []byte) (Payload, error) {
				var m WeightedPointsMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "HullMsg",
			msgs: []Payload{
				HullMsg{},
				HullMsg{V: []geom.Vertex{{Q: 0, C: 10}, {Q: 7, C: 0.5}}},
			},
			decode: func(b []byte) (Payload, error) {
				var m HullMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "HullsMsg",
			msgs: []Payload{
				HullsMsg{},
				HullsMsg{Hulls: [][]geom.Vertex{{{Q: 0, C: 3}}, {{Q: 0, C: 9}, {Q: 4, C: 1}}, {}}},
			},
			decode: func(b []byte) (Payload, error) {
				var m HullsMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "PivotMsg",
			msgs: []Payload{
				PivotMsg{},
				PivotMsg{I0: -1, Q0: 9, L0: 2.5, Rank: 14, Exhausted: true, Tau: 0.125},
			},
			decode: func(b []byte) (Payload, error) {
				var m PivotMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "Float64sMsg",
			msgs: []Payload{
				Float64sMsg{},
				Float64sMsg{Vals: []float64{1, -2, 0.5}},
			},
			decode: func(b []byte) (Payload, error) {
				var m Float64sMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "NodesMsg",
			msgs: []Payload{
				NodesMsg{},
				NodesMsg{Nodes: []NodeWire{
					{Support: []uint32{0, 3}, Prob: []float64{0.25, 0.75}},
					{Support: []uint32{1}, Prob: []float64{1}},
					{},
				}},
			},
			decode: func(b []byte) (Payload, error) {
				var m NodesMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
		{
			name: "CollapsedMsg",
			msgs: []Payload{
				CollapsedMsg{},
				CollapsedMsg{Y: []metric.Point{{1, 1}}, Ell: []float64{3}, W: []float64{-1}},
				CollapsedMsg{Y: []metric.Point{{1, 1}, {2, 2}}, Ell: []float64{1, 2}, W: []float64{1.25, math.NaN()}},
				CollapsedMsg{Y: []metric.Point{{1, 1}, {2, 2}}, Ell: []float64{0.1, 0.2}, W: []float64{3, 400}},
			},
			decode: func(b []byte) (Payload, error) {
				var m CollapsedMsg
				err := m.UnmarshalBinary(b)
				return m, err
			},
		},
	}
}

// TestPayloadRoundTripAll: MarshalBinary and UnmarshalBinary are inverses
// for every payload type — the decoded message holds the values that were
// sent (compared in %b, which tells -0 from 0, equates NaN with NaN and nil
// with empty), and re-encoding it reproduces the wire bytes exactly (so
// byte accounting is representation-independent).
func TestPayloadRoundTripAll(t *testing.T) {
	for _, wt := range wireTypes() {
		t.Run(wt.name, func(t *testing.T) {
			for i, msg := range wt.msgs {
				b1, err := msg.MarshalBinary()
				if err != nil {
					t.Fatalf("msg %d: marshal: %v", i, err)
				}
				dec, err := wt.decode(b1)
				if err != nil {
					t.Fatalf("msg %d: unmarshal: %v", i, err)
				}
				if sent, got := fmt.Sprintf("%b", msg), fmt.Sprintf("%b", dec); sent != got {
					t.Fatalf("msg %d: decoded values differ:\nsent %s\ngot  %s", i, sent, got)
				}
				b2, err := dec.MarshalBinary()
				if err != nil {
					t.Fatalf("msg %d: re-marshal: %v", i, err)
				}
				if !bytes.Equal(b1, b2) {
					t.Fatalf("msg %d: round trip changed bytes:\n%x\n%x", i, b1, b2)
				}
			}
		})
	}
}

// TestPayloadRejectsTruncationAll: every strict prefix and every one-byte
// extension of a valid encoding must be rejected, for every type.
func TestPayloadRejectsTruncationAll(t *testing.T) {
	for _, wt := range wireTypes() {
		t.Run(wt.name, func(t *testing.T) {
			msg := wt.msgs[len(wt.msgs)-1] // the non-trivial instance
			b, err := msg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(b); cut++ {
				if _, err := wt.decode(b[:cut]); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
			if _, err := wt.decode(append(append([]byte(nil), b...), 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
		})
	}
}

// uv is the wire bytes of a sequence of uvarints.
func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestHostileLengthsRejected: decoders must reject length fields claiming
// more than the message holds before allocating for them — in uint64, so a
// length of 2^31 and up cannot wrap a 32-bit int past the check — and
// values outside what the Go-side type holds exactly.
func TestHostileLengthsRejected(t *testing.T) {
	types := map[string]func([]byte) (Payload, error){
		"Multi": func(b []byte) (Payload, error) { _, err := SplitMulti(b); return nil, err },
	}
	for _, wt := range wireTypes() {
		types[wt.name] = wt.decode
	}
	f64 := make([]byte, 8)
	for _, tc := range []struct {
		name, typ string
		b         []byte
	}{
		{"2^32-1 points of the largest dimension", "PointsMsg", uv(math.MaxUint32, maxDim)},
		{"2^32-1 multi parts", "Multi", uv(math.MaxUint32)},
		{"huge node support count", "NodesMsg", uv(1, math.MaxUint32)},
		{"multi part length 2^31", "Multi", uv(1, 1<<31)},
		{"multi part length 2^32", "Multi", uv(1, 1<<32)},
		{"multi part length 2^63", "Multi", uv(1, 1<<63)},
		{"multi part length 2^64-1", "Multi", uv(1, math.MaxUint64)},
		{"points count 2^64-1", "PointsMsg", uv(math.MaxUint64, 1)},
		{"floats count 2^61 (8n wraps to 0)", "Float64sMsg", uv(1 << 61)},
		{"dimension above the cap, no points", "PointsMsg", uv(0, maxDim+1)},
		{"dimension 2^61 (row size wraps)", "WeightedPointsMsg", append(uv(1, 1<<61), 0)},
		{"zero-dimensional points", "PointsMsg", uv(5, 0)},
		{"weight 2^53 in integral form", "WeightedPointsMsg", append(append(uv(1, 0), 1), uv(1<<53)...)},
		{"weight form flag 2", "WeightedPointsMsg", append(uv(0, 2), 2)},
		{"collapsed weight form flag 2", "CollapsedMsg", append(uv(0, 2), 2)},
		{"hull budget above MaxInt32", "HullMsg", append(uv(1, math.MaxInt32+1), f64...)},
		{"hull count 2^50", "HullsMsg", uv(1, 1<<50)},
		{"ground-set index above MaxUint32", "NodesMsg", append(uv(1, 1, math.MaxUint32+1), f64...)},
	} {
		if _, err := types[tc.typ](tc.b); err == nil {
			t.Errorf("%s: %s decoded % x", tc.name, tc.typ, tc.b)
		}
	}
	// The encoder refuses what the decoder would: values the wire form
	// cannot carry never leave a site.
	for name, p := range map[string]Payload{
		"negative hull budget":    HullMsg{V: []geom.Vertex{{Q: -1}}},
		"zero-dimensional points": PointsMsg{Pts: []metric.Point{{}}},
		"short weight column":     WeightedPointsMsg{Pts: []metric.Point{{1}}},
	} {
		if _, err := p.MarshalBinary(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// FuzzPayloadDecode feeds arbitrary bytes to every decoder: decoding must
// never panic or over-allocate, and anything that decodes must re-encode
// and decode again cleanly.
func FuzzPayloadDecode(f *testing.F) {
	for kind, wt := range wireTypes() {
		for _, msg := range wt.msgs {
			b, err := msg.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(byte(kind), b)
		}
	}
	multiSeed, _ := Multi{Parts: []Payload{Float64sMsg{Vals: []float64{1}}, PointsMsg{}}}.MarshalBinary()
	f.Add(byte(8), multiSeed)

	types := wireTypes()
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		k := int(kind) % (len(types) + 1)
		if k == len(types) {
			// SplitMulti has no re-encode; parts are opaque.
			parts, err := SplitMulti(data)
			if err == nil && len(parts) > len(data) {
				t.Fatalf("%d parts out of %d bytes", len(parts), len(data))
			}
			return
		}
		wt := types[k]
		dec, err := wt.decode(data)
		if err != nil {
			return // invalid input rejected: fine
		}
		re, err := dec.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: decoded message failed to re-marshal: %v", wt.name, err)
		}
		if _, err := wt.decode(re); err != nil {
			t.Fatalf("%s: re-encoded message rejected: %v", wt.name, err)
		}
	})
}
