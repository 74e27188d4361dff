package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"dpc/internal/geom"
	"dpc/internal/metric"
)

// The wire format is specified in the package comment; this file is its
// only implementation.

const (
	// maxDim caps a decoded point dimension so the row-size arithmetic of the
	// allocation guards cannot overflow.
	maxDim = 1 << 20
	// maxIntWeight bounds the weights shipped as uvarints: below 2^53 every
	// integer is a float64, so the integral form is recovered bit for bit.
	maxIntWeight = 1 << 53
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

type reader struct {
	b   []byte
	off int
}

// take returns the next n bytes. Every length read off the wire ends up
// here or in count, compared in uint64 against the bytes that remain: wire
// input can come off a real socket, and a hostile length must neither wrap
// an int (where int is 32 bits) nor size an allocation.
func (r *reader) take(n uint64) ([]byte, error) {
	if rem := uint64(len(r.b) - r.off); n > rem {
		return nil, fmt.Errorf("comm: truncated message: %d bytes wanted at offset %d, %d remain", n, r.off, rem)
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("comm: truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// need guards the count-sized allocations: count elements of at least
// minBytes each must fit in the bytes actually present. Division, not
// multiplication: both operands are attacker-controlled and their product
// can overflow uint64.
func (r *reader) need(count, minBytes uint64) error {
	if rem := uint64(len(r.b) - r.off); count > rem/minBytes {
		return fmt.Errorf("comm: message declares %d elements of >= %d bytes but only %d bytes follow",
			count, minBytes, rem)
	}
	return nil
}

// count reads an element count and checks it with need.
func (r *reader) count(minBytes uint64) (uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return n, r.need(n, minBytes)
}

func (r *reader) u32() (uint32, error) {
	s, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (r *reader) f64() (float64, error) {
	s, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s)), nil
}

// floats reads n consecutive f64s.
func (r *reader) floats(n uint64) ([]float64, error) {
	if err := r.need(n, 8); err != nil { // also keeps 8*n from overflowing
		return nil, err
	}
	raw, err := r.take(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

func (r *reader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("comm: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// integral reports whether every weight survives a trip through a uvarint
// bit for bit: a non-negative integer below 2^53. -0, NaN, +-Inf and
// fractions do not.
func integral(w []float64) bool {
	for _, x := range w {
		if !(x >= 0 && x < maxIntWeight && x == math.Trunc(x) && !math.Signbit(x)) {
			return false
		}
	}
	return true
}

// encodeBlock is the one encoder of the point-carrying messages: a row per
// point of its coordinates followed by that row of every column. The last
// column, when there is one, is the weight.
func encodeBlock(pts []metric.Point, cols ...[]float64) ([]byte, error) {
	dim := 0
	if len(pts) > 0 {
		dim = len(pts[0])
	}
	if dim > maxDim {
		return nil, fmt.Errorf("comm: point dimension %d above the cap %d", dim, maxDim)
	}
	if len(pts) > 0 && dim == 0 && len(cols) == 0 {
		// Zero-dim points would make elements free on the wire, which
		// breaks the decoder's allocation guard; they carry no
		// information anyway.
		return nil, fmt.Errorf("comm: zero-dimensional points")
	}
	b := make([]byte, 0, 2*binary.MaxVarintLen32+1+len(pts)*(dim+len(cols))*8)
	b = appendUvarint(b, uint64(len(pts)))
	b = appendUvarint(b, uint64(dim))
	for _, c := range cols {
		if len(c) != len(pts) {
			return nil, fmt.Errorf("comm: %d points but a column of %d values", len(pts), len(c))
		}
	}
	intW := len(cols) > 0 && integral(cols[len(cols)-1])
	if intW {
		b = append(b, 1)
	} else if len(cols) > 0 {
		b = append(b, 0)
	}
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("comm: ragged point dims %d vs %d", len(p), dim)
		}
		for _, x := range p {
			b = appendF64(b, x)
		}
		for c, col := range cols {
			if intW && c == len(cols)-1 {
				b = appendUvarint(b, uint64(col[i]))
			} else {
				b = appendF64(b, col[i])
			}
		}
	}
	return b, nil
}

// decodeBlock is encodeBlock's inverse for a message of ncols columns.
func decodeBlock(b []byte, ncols int) ([]metric.Point, [][]float64, error) {
	r := &reader{b: b}
	n, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	dim, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if dim > maxDim {
		return nil, nil, fmt.Errorf("comm: point dimension %d above the cap %d", dim, maxDim)
	}
	rowMin := 8 * (dim + uint64(ncols))
	intW := false
	if ncols > 0 {
		flag, err := r.take(1)
		if err != nil {
			return nil, nil, err
		}
		if flag[0] > 1 {
			return nil, nil, fmt.Errorf("comm: weight form flag %d (want 0 or 1)", flag[0])
		}
		if intW = flag[0] == 1; intW {
			rowMin -= 7 // a uvarint weight takes at least one byte
		}
	}
	if rowMin == 0 {
		if n > 0 {
			return nil, nil, fmt.Errorf("comm: %d zero-dimensional points", n)
		}
	} else if err := r.need(n, rowMin); err != nil {
		return nil, nil, err
	}
	pts := make([]metric.Point, n)
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = make([]float64, n)
	}
	for i := range pts {
		if pts[i], err = r.floats(dim); err != nil {
			return nil, nil, err
		}
		for c := range cols {
			if intW && c == ncols-1 {
				w, err := r.uvarint()
				if err != nil {
					return nil, nil, err
				}
				if w >= maxIntWeight {
					return nil, nil, fmt.Errorf("comm: weight %d is not an exact float64", w)
				}
				cols[c][i] = float64(w)
			} else if cols[c][i], err = r.f64(); err != nil {
				return nil, nil, err
			}
		}
	}
	return pts, cols, r.done()
}

// PointsMsg carries raw points (the B-bit objects of the paper; B = 8*dim
// bytes per point here).
type PointsMsg struct {
	Pts []metric.Point
}

// MarshalBinary implements Payload.
func (m PointsMsg) MarshalBinary() ([]byte, error) { return encodeBlock(m.Pts) }

// UnmarshalBinary decodes a PointsMsg.
func (m *PointsMsg) UnmarshalBinary(b []byte) (err error) {
	m.Pts, _, err = decodeBlock(b, 0)
	return err
}

// WeightedPointsMsg carries precluster centers with their attached weights
// (Line 15 of Algorithm 1: "the 2k centers ... the number of points
// attached to each center").
type WeightedPointsMsg struct {
	Pts []metric.Point
	W   []float64
}

// MarshalBinary implements Payload.
func (m WeightedPointsMsg) MarshalBinary() ([]byte, error) { return encodeBlock(m.Pts, m.W) }

// UnmarshalBinary decodes a WeightedPointsMsg.
func (m *WeightedPointsMsg) UnmarshalBinary(b []byte) error {
	pts, cols, err := decodeBlock(b, 1)
	if err != nil {
		return err
	}
	m.Pts, m.W = pts, cols[0]
	return nil
}

// appendHull and reader.hull are the one hull codec HullMsg and HullsMsg
// share.
func appendHull(b []byte, h []geom.Vertex) ([]byte, error) {
	b = appendUvarint(b, uint64(len(h)))
	for _, v := range h {
		if v.Q < 0 || v.Q > math.MaxInt32 {
			return nil, fmt.Errorf("comm: hull budget %d out of range", v.Q)
		}
		b = appendUvarint(b, uint64(v.Q))
		b = appendF64(b, v.C)
	}
	return b, nil
}

func (r *reader) hull() ([]geom.Vertex, error) {
	n, err := r.count(9)
	if err != nil {
		return nil, err
	}
	h := make([]geom.Vertex, n)
	for i := range h {
		q, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if q > math.MaxInt32 {
			return nil, fmt.Errorf("comm: hull budget %d out of range", q)
		}
		c, err := r.f64()
		if err != nil {
			return nil, err
		}
		h[i] = geom.Vertex{Q: int(q), C: c}
	}
	return h, nil
}

// HullMsg carries the lower convex hull a site ships in Round 1 of
// Algorithm 1 (Line 5: "Send the function f_i to the coordinator").
type HullMsg struct {
	V []geom.Vertex
}

// MarshalBinary implements Payload.
func (m HullMsg) MarshalBinary() ([]byte, error) {
	return appendHull(make([]byte, 0, binary.MaxVarintLen32*(1+len(m.V))+8*len(m.V)), m.V)
}

// UnmarshalBinary decodes a HullMsg.
func (m *HullMsg) UnmarshalBinary(b []byte) (err error) {
	r := &reader{b: b}
	if m.V, err = r.hull(); err != nil {
		return err
	}
	return r.done()
}

// HullsMsg carries several hulls (Algorithm 4 ships one hull per tau).
type HullsMsg struct {
	Hulls [][]geom.Vertex
}

// MarshalBinary implements Payload.
func (m HullsMsg) MarshalBinary() (b []byte, err error) {
	b = appendUvarint(nil, uint64(len(m.Hulls)))
	for _, h := range m.Hulls {
		if b, err = appendHull(b, h); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// UnmarshalBinary decodes a HullsMsg.
func (m *HullsMsg) UnmarshalBinary(b []byte) error {
	r := &reader{b: b}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	m.Hulls = make([][]geom.Vertex, n)
	for i := range m.Hulls {
		if m.Hulls[i], err = r.hull(); err != nil {
			return err
		}
	}
	return r.done()
}

// PivotMsg is the coordinator's Round-2 broadcast (Step 9 of Algorithm 1):
// the rank-rho*t slope entry. Tau carries the truncation threshold chosen
// by Algorithm 4 (zero otherwise). The one downlink message keeps fixed
// 32-bit slots (I0 is signed): 29 bytes whatever the values.
type PivotMsg struct {
	I0, Q0    int
	L0        float64
	Rank      int
	Exhausted bool
	Tau       float64
}

// MarshalBinary implements Payload.
func (m PivotMsg) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 29)
	b = appendU32(b, uint32(int32(m.I0)))
	b = appendU32(b, uint32(m.Q0))
	b = appendF64(b, m.L0)
	b = appendU32(b, uint32(m.Rank))
	if m.Exhausted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendF64(b, m.Tau)
	return b, nil
}

// UnmarshalBinary decodes a PivotMsg.
func (m *PivotMsg) UnmarshalBinary(b []byte) error {
	r := &reader{b: b}
	i0, err := r.u32()
	if err != nil {
		return err
	}
	m.I0 = int(int32(i0))
	q0, err := r.u32()
	if err != nil {
		return err
	}
	m.Q0 = int(q0)
	if m.L0, err = r.f64(); err != nil {
		return err
	}
	rank, err := r.u32()
	if err != nil {
		return err
	}
	m.Rank = int(rank)
	ex, err := r.take(1)
	if err != nil {
		return err
	}
	m.Exhausted = ex[0] == 1
	if m.Tau, err = r.f64(); err != nil {
		return err
	}
	return r.done()
}

// Float64sMsg carries a vector of scalars.
type Float64sMsg struct {
	Vals []float64
}

// MarshalBinary implements Payload.
func (m Float64sMsg) MarshalBinary() ([]byte, error) {
	b := appendUvarint(nil, uint64(len(m.Vals)))
	for _, v := range m.Vals {
		b = appendF64(b, v)
	}
	return b, nil
}

// UnmarshalBinary decodes a Float64sMsg.
func (m *Float64sMsg) UnmarshalBinary(b []byte) error {
	r := &reader{b: b}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if m.Vals, err = r.floats(n); err != nil {
		return err
	}
	return r.done()
}

// NodeWire is one uncertain node's full distribution: support indices into
// the shared ground set and their probabilities. Its encoded size is the
// paper's I (the information needed to encode a node).
type NodeWire struct {
	Support []uint32
	Prob    []float64
}

// NodesMsg carries whole uncertain nodes — the expensive payload
// Algorithm 3 avoids and Algorithm 4 pays only for the t outliers
// (the t*I term of Theorem 5.14).
type NodesMsg struct {
	Nodes []NodeWire
}

// MarshalBinary implements Payload.
func (m NodesMsg) MarshalBinary() ([]byte, error) {
	b := appendUvarint(nil, uint64(len(m.Nodes)))
	for _, nd := range m.Nodes {
		if len(nd.Support) != len(nd.Prob) {
			return nil, fmt.Errorf("comm: node support/prob mismatch")
		}
		b = appendUvarint(b, uint64(len(nd.Support)))
		for i := range nd.Support {
			b = appendUvarint(b, uint64(nd.Support[i]))
			b = appendF64(b, nd.Prob[i])
		}
	}
	return b, nil
}

// UnmarshalBinary decodes a NodesMsg.
func (m *NodesMsg) UnmarshalBinary(b []byte) error {
	r := &reader{b: b}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	m.Nodes = make([]NodeWire, n)
	for i := range m.Nodes {
		cnt, err := r.count(9)
		if err != nil {
			return err
		}
		nd := NodeWire{Support: make([]uint32, cnt), Prob: make([]float64, cnt)}
		for j := range nd.Support {
			idx, err := r.uvarint()
			if err != nil {
				return err
			}
			if idx > math.MaxUint32 {
				return fmt.Errorf("comm: ground-set index %d overflows u32", idx)
			}
			nd.Support[j] = uint32(idx)
			if nd.Prob[j], err = r.f64(); err != nil {
				return err
			}
		}
		m.Nodes[i] = nd
	}
	return r.done()
}

// CollapsedMsg carries the compressed representation of uncertain nodes
// from Algorithm 3: the 1-median y_j (a point, B bytes) and the collapse
// cost ell_j = E[d(sigma(j), y_j)] — 8 extra bytes instead of I.
type CollapsedMsg struct {
	Y   []metric.Point
	Ell []float64
	W   []float64 // attached weight (for precluster centers)
}

// MarshalBinary implements Payload.
func (m CollapsedMsg) MarshalBinary() ([]byte, error) { return encodeBlock(m.Y, m.Ell, m.W) }

// UnmarshalBinary decodes a CollapsedMsg.
func (m *CollapsedMsg) UnmarshalBinary(b []byte) error {
	y, cols, err := decodeBlock(b, 2)
	if err != nil {
		return err
	}
	m.Y, m.Ell, m.W = y, cols[0], cols[1]
	return nil
}

// Multi bundles several payloads into one site message (e.g. centers +
// outliers in Round 2 of Algorithm 1). The wire form carries a length
// prefix per part, so the receiver splits it back with SplitMulti and
// decodes each part with the matching message type.
type Multi struct {
	Parts []Payload
}

// MarshalBinary implements Payload.
func (m Multi) MarshalBinary() ([]byte, error) {
	b := appendUvarint(nil, uint64(len(m.Parts)))
	for _, p := range m.Parts {
		sub, err := p.MarshalBinary()
		if err != nil {
			return nil, err
		}
		b = appendUvarint(b, uint64(len(sub)))
		b = append(b, sub...)
	}
	return b, nil
}

// SplitMulti splits the wire form of a Multi back into its parts' bytes
// (the inverse of Multi.MarshalBinary, up to decoding the parts).
func SplitMulti(b []byte) ([][]byte, error) {
	r := &reader{b: b}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	parts := make([][]byte, n)
	for i := range parts {
		sz, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if parts[i], err = r.take(sz); err != nil {
			return nil, fmt.Errorf("comm: multi part %d: %w", i, err)
		}
	}
	return parts, r.done()
}
