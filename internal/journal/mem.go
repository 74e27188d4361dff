package journal

import "sync"

// MemLog is an in-memory Log for tests and journal-less embedding: it
// records appends and loses them with the process, which is exactly what
// a test asserting replay semantics wants to simulate.
type MemLog struct {
	mu      sync.Mutex
	seq     uint64
	records []Record
	sealed  bool
	closed  bool
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log. Refs index into the in-memory slice (Seg stays
// 0 — a MemLog has no durable address space).
func (m *MemLog) Append(kind Kind, payload []byte) (RecordRef, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return RecordRef{}, ErrClosed
	}
	m.seq++
	m.records = append(m.records, Record{Kind: kind, Seq: m.seq, Payload: append([]byte(nil), payload...), Off: int64(len(m.records))})
	return RecordRef{Seg: 0, Off: int64(len(m.records) - 1)}, nil
}

// Seal implements Log.
func (m *MemLog) Seal() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed, m.sealed = true, true
	return nil
}

// Close implements Log.
func (m *MemLog) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Records snapshots the appended records (tests).
func (m *MemLog) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record(nil), m.records...)
}

// Sealed reports whether Seal ran (tests).
func (m *MemLog) Sealed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sealed
}
