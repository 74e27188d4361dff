package tree

import (
	"encoding/binary"
	"fmt"
	"time"

	"dpc/internal/comm"
)

// An aggregator forwards one batch per round: its subtree's per-site
// payloads in global site order, exactly as the sites encoded them, plus the
// physical per-level byte counts observed below it. A batch is framing
// only — what a payload looks like inside is internal/comm's business, so a
// level-1 aggregator appends each child's bytes as they came, a higher one
// concatenates its children's sections, and the root hands them out
// unchanged (centers stay byte-identical to the star).
//
// Wire form (all varints are unsigned LEB128, binary.PutUvarint):
//
//	byte    magic (0xB7)
//	byte    version (2)
//	varint  L — level count
//	L ×     varint down, varint up      (physical bytes this round; entry 0
//	                                     is this aggregator's own links)
//	varint  n — leaf section count
//	n ×     varint workNanos; varint len; len bytes
//
// workNanos is the site's measured compute time: transport metadata, like
// the TCP frame header that carries the same field below the aggregators,
// so its bytes are left out of the per-level accounting (decodeBatch reports
// them as batch.workBytes) and the root's inbox is a function of the
// payloads alone.
const (
	batchMagic   = 0xB7
	batchVersion = 2

	// Decoder guards against hostile length fields.
	maxLevels   = 64
	maxSections = 1 << 22
)

// section is one leaf site's payload inside a batch.
type section struct {
	work time.Duration
	data []byte
}

// batch is the decoded form an aggregator merges and the root unpacks.
type batch struct {
	levels    []comm.TreeLevel
	secs      []section
	workBytes int64 // bytes the sections' work varints took on the wire
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// encodeBatch serializes a batch.
func encodeBatch(bt batch) []byte {
	n := 2 + binary.MaxVarintLen64*(2*len(bt.levels)+1)
	for _, s := range bt.secs {
		n += 2*binary.MaxVarintLen64 + len(s.data)
	}
	out := make([]byte, 0, n)
	out = append(out, batchMagic, batchVersion)
	out = appendUvarint(out, uint64(len(bt.levels)))
	for _, l := range bt.levels {
		out = appendUvarint(out, uint64(l.Down))
		out = appendUvarint(out, uint64(l.Up))
	}
	out = appendUvarint(out, uint64(len(bt.secs)))
	for _, s := range bt.secs {
		out = appendUvarint(out, uint64(s.work))
		out = appendUvarint(out, uint64(len(s.data)))
		out = append(out, s.data...)
	}
	return out
}

// vreader reads the batch framing with bounds checks, the same
// hostile-input posture as comm's payload reader.
type vreader struct {
	b   []byte
	off int
}

func (r *vreader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tree: truncated or overlong varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *vreader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("tree: truncated at offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *vreader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("tree: length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

func (r *vreader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("tree: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// decodeBatch parses a batch, validating bounds; section data aliases raw
// and is never looked into.
func decodeBatch(raw []byte) (batch, error) {
	r := &vreader{b: raw}
	magic, err := r.byte()
	if err != nil {
		return batch{}, err
	}
	if magic != batchMagic {
		return batch{}, fmt.Errorf("tree: not a batch (leading byte %#x)", magic)
	}
	ver, err := r.byte()
	if err != nil {
		return batch{}, err
	}
	if ver != batchVersion {
		return batch{}, fmt.Errorf("tree: unknown batch version %d", ver)
	}
	nl, err := r.uvarint()
	if err != nil {
		return batch{}, err
	}
	if nl == 0 || nl > maxLevels {
		return batch{}, fmt.Errorf("tree: %d levels (want 1..%d)", nl, maxLevels)
	}
	bt := batch{levels: make([]comm.TreeLevel, nl)}
	for i := range bt.levels {
		d, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		u, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		bt.levels[i] = comm.TreeLevel{Down: int64(d), Up: int64(u)}
	}
	ns, err := r.uvarint()
	if err != nil {
		return batch{}, err
	}
	// A section takes at least its two varints, so the count is bounded by
	// the bytes present before anything is sized from it.
	if ns > maxSections || ns > uint64(len(raw)-r.off)/2 {
		return batch{}, fmt.Errorf("tree: %d sections in %d bytes (cap %d)", ns, len(raw)-r.off, maxSections)
	}
	bt.secs = make([]section, 0, ns)
	for i := uint64(0); i < ns; i++ {
		at := r.off
		w, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		bt.workBytes += int64(r.off - at)
		ln, err := r.uvarint()
		if err != nil {
			return batch{}, err
		}
		data, err := r.take(ln)
		if err != nil {
			return batch{}, fmt.Errorf("tree: section %d: %w", i, err)
		}
		bt.secs = append(bt.secs, section{work: time.Duration(w), data: data})
	}
	if err := r.done(); err != nil {
		return batch{}, err
	}
	return bt, nil
}

// addLevels sums b into a element-wise, growing a as needed (subtrees of
// unequal depth sum where they overlap).
func addLevels(a, b []comm.TreeLevel) []comm.TreeLevel {
	for len(a) < len(b) {
		a = append(a, comm.TreeLevel{})
	}
	for i, l := range b {
		a[i].Down += l.Down
		a[i].Up += l.Up
	}
	return a
}
