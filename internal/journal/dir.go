package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// DirLog is the segmented, compactable journal store: a directory of
// fixed-format segment files (journal-000001.dpcj, journal-000002.dpcj,
// …, each an independent journal stream) plus a MANIFEST.json
// naming the live segments in replay order. Appends go to the final
// (active) segment and rotate to a fresh one when it fills; Checkpoint
// rotates unconditionally and writes the caller's snapshot as the new
// segment's first record, after which DropBefore deletes the superseded
// chain. Only the manifest decides liveness: a crash between "create
// segment" and "update manifest" leaves an orphan file that the next
// open deletes, and a crash between Checkpoint and DropBefore replays
// the old chain plus the snapshot — never less than was acknowledged.
type DirLog struct {
	mu     sync.Mutex
	dir    string
	opts   DirOptions
	f      *os.File // active (final) segment, positioned at off
	seg    int      // active segment number
	segs   []int    // live segments in manifest order; segs[len-1] == seg
	seq    uint64
	off    int64 // next append offset within the active segment
	closed bool
}

// DirOptions configures a DirLog.
type DirOptions struct {
	// Sync fsyncs the active segment after every record (power-loss
	// durability; a record handed to the OS survives a process kill
	// either way).
	Sync bool
	// SegmentBytes is the rotation threshold: an append that would push
	// the active segment past this size rotates first. 0 means the
	// 64 MiB default. A single record larger than the threshold still
	// fits (in its own segment) — rotation never rejects a record the
	// format accepts.
	SegmentBytes int64
}

// DefaultSegmentBytes is the rotation threshold when DirOptions leaves
// SegmentBytes zero.
const DefaultSegmentBytes int64 = 64 << 20

// manifestName is the file naming the live segments, updated atomically
// via write-to-temp + rename.
const manifestName = "MANIFEST.json"

type manifest struct {
	Version  int   `json:"version"`
	Segments []int `json:"segments"`
}

// SegmentPath returns the path of segment n inside dir.
func SegmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%06d.dpcj", n))
}

// segmentNumber parses a segment file name, returning 0 for non-segment
// names.
func segmentNumber(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "journal-%06d.dpcj", &n); err != nil || n <= 0 {
		return 0
	}
	if name != fmt.Sprintf("journal-%06d.dpcj", n) {
		return 0
	}
	return n
}

func writeManifest(dir string, segs []int) error {
	data, err := json.Marshal(manifest{Version: 1, Segments: segs})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	// Persist the rename itself; a directory that cannot be fsynced
	// (some filesystems) still works, just with a smaller crash window.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func readManifest(dir string) ([]int, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, false, fmt.Errorf("journal: bad manifest: %w", err)
	}
	if m.Version != 1 || len(m.Segments) == 0 {
		return nil, false, fmt.Errorf("journal: bad manifest: version %d, %d segments", m.Version, len(m.Segments))
	}
	for i, s := range m.Segments {
		if s <= 0 || (i > 0 && s <= m.Segments[i-1]) {
			return nil, false, fmt.Errorf("journal: bad manifest: segments %v not strictly increasing", m.Segments)
		}
	}
	return m.Segments, true, nil
}

// createSegment makes a fresh segment file holding only the header and
// fsyncs it, so the file is a valid empty journal before the manifest
// ever names it.
func createSegment(dir string, n int) (*os.File, error) {
	f, err := os.OpenFile(SegmentPath(dir, n), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [12]byte
	copy(hdr[:8], Magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// OpenDir opens (creating if needed) the segmented journal in dir,
// replays every live segment in manifest order, and returns the log
// positioned for appending plus the combined replay result. Records
// carry their RecordRef (segment + offset). A torn tail on the final
// segment is repaired in place (cut back to the last complete record, so
// appends continue on a record boundary); a short or corrupt
// non-final segment is real corruption (those files are immutable once
// rotated past) and returns the recovered prefix alongside ErrCorrupt.
func OpenDir(dir string, opts DirOptions) (*DirLog, ReplayResult, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, ReplayResult{}, err
	}
	segs, haveManifest, err := readManifest(dir)
	if err != nil {
		return nil, ReplayResult{}, err
	}
	if !haveManifest {
		// No manifest: adopt whatever segments exist (a crash between
		// creating segment 1 and writing the first manifest).
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, ReplayResult{}, err
		}
		for _, e := range entries {
			if n := segmentNumber(e.Name()); n > 0 {
				segs = append(segs, n)
			}
		}
		sort.Ints(segs)
		if len(segs) == 0 {
			f, err := createSegment(dir, 1)
			if err != nil {
				return nil, ReplayResult{}, err
			}
			f.Close()
			segs = []int{1}
		}
		if err := writeManifest(dir, segs); err != nil {
			return nil, ReplayResult{}, err
		}
	} else {
		// Delete orphan segment files the manifest does not name: either
		// GC'd segments whose unlink crashed mid-way, or a rotation that
		// died before its manifest update.
		live := make(map[int]bool, len(segs))
		for _, s := range segs {
			live[s] = true
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, ReplayResult{}, err
		}
		for _, e := range entries {
			if n := segmentNumber(e.Name()); n > 0 && !live[n] {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}

	var combined ReplayResult
	for i, s := range segs {
		final := i == len(segs)-1
		path := SegmentPath(dir, s)
		res, err := replaySegment(path)
		if err != nil {
			combined.Records = append(combined.Records, stampSeg(res.Records, s)...)
			return nil, combined, fmt.Errorf("%s: %w", path, err)
		}
		if !final && res.Truncated {
			// A rotated-past segment is immutable; a tear there is lost
			// bytes in the middle of the chain, not a crash tail.
			combined.Records = append(combined.Records, stampSeg(res.Records, s)...)
			return nil, combined, fmt.Errorf("%s: %w: non-final segment ends mid-record", path, ErrCorrupt)
		}
		combined.Records = append(combined.Records, stampSeg(res.Records, s)...)
		if final {
			combined.Sealed = res.Sealed
			combined.Truncated = res.Truncated
			combined.GoodBytes = res.GoodBytes
		}
	}

	active := segs[len(segs)-1]
	f, err := os.OpenFile(SegmentPath(dir, active), os.O_RDWR, 0o644)
	if err != nil {
		return nil, combined, err
	}
	if combined.Truncated {
		if err := f.Truncate(combined.GoodBytes); err != nil {
			f.Close()
			return nil, combined, err
		}
	}
	if _, err := f.Seek(combined.GoodBytes, 0); err != nil {
		f.Close()
		return nil, combined, err
	}
	l := &DirLog{dir: dir, opts: opts, f: f, seg: active, segs: segs, off: combined.GoodBytes}
	for _, rec := range combined.Records {
		if rec.Seq > l.seq {
			l.seq = rec.Seq
		}
	}
	return l, combined, nil
}

// replaySegment replays one segment file.
func replaySegment(path string) (ReplayResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ReplayResult{}, err
	}
	defer f.Close()
	return Replay(f)
}

func stampSeg(recs []Record, seg int) []Record {
	for i := range recs {
		recs[i].Seg = seg
	}
	return recs
}

// Append implements Log, rotating to a fresh segment first when the
// active one would grow past SegmentBytes.
func (l *DirLog) Append(kind Kind, payload []byte) (RecordRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return RecordRef{}, ErrClosed
	}
	frame, err := frameRecord(kind, l.seq+1, payload)
	if err != nil {
		return RecordRef{}, err
	}
	if l.off > 12 && l.off+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return RecordRef{}, err
		}
		// Re-frame under the same seq (rotation does not consume one).
		frame, err = frameRecord(kind, l.seq+1, payload)
		if err != nil {
			return RecordRef{}, err
		}
	}
	return l.writeFrameLocked(frame)
}

// writeFrameLocked appends one pre-built frame to the active segment.
func (l *DirLog) writeFrameLocked(frame []byte) (RecordRef, error) {
	if _, err := l.f.Write(frame); err != nil {
		return RecordRef{}, fmt.Errorf("journal: append: %w", err)
	}
	l.seq++
	ref := RecordRef{Seg: l.seg, Off: l.off}
	l.off += int64(len(frame))
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return RecordRef{}, err
		}
	}
	return ref, nil
}

// rotateLocked creates segment seg+1, fsyncs it, publishes it in the
// manifest, and makes it the active segment. The old segment file is
// synced and closed first so everything rotated past is durable before
// the manifest names its successor.
func (l *DirLog) rotateLocked() error {
	next := l.seg + 1
	if err := l.f.Sync(); err != nil {
		return err
	}
	nf, err := createSegment(l.dir, next)
	if err != nil {
		return err
	}
	segs := append(append([]int(nil), l.segs...), next)
	if err := writeManifest(l.dir, segs); err != nil {
		nf.Close()
		os.Remove(SegmentPath(l.dir, next))
		return err
	}
	l.f.Close()
	l.f, l.seg, l.segs, l.off = nf, next, segs, 12
	return nil
}

// Checkpoint implements Compactor: rotate unconditionally and write
// payload as the first record of the fresh segment. On return the
// record is durable (fsynced regardless of Sync mode) and addressable;
// the caller may then DropBefore its segment.
func (l *DirLog) Checkpoint(kind Kind, payload []byte) (RecordRef, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return RecordRef{}, ErrClosed
	}
	frame, err := frameRecord(kind, l.seq+1, payload)
	if err != nil {
		return RecordRef{}, err
	}
	if err := l.rotateLocked(); err != nil {
		return RecordRef{}, err
	}
	ref, err := l.writeFrameLocked(frame)
	if err != nil {
		return ref, err
	}
	if !l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return ref, err
		}
	}
	return ref, nil
}

// DropBefore implements Compactor: removes every segment numbered below
// seg — manifest first (the commit point), then the files. A crash
// between the two leaves orphans the next open deletes.
func (l *DirLog) DropBefore(seg int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var keep, drop []int
	for _, s := range l.segs {
		if s < seg && s != l.seg {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	if len(drop) == 0 {
		return 0, nil
	}
	if err := writeManifest(l.dir, keep); err != nil {
		return 0, err
	}
	l.segs = keep
	for _, s := range drop {
		os.Remove(SegmentPath(l.dir, s))
	}
	return len(drop), nil
}

// Segments implements Compactor.
func (l *DirLog) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Seal implements Log: appends the clean-shutdown marker to the active
// segment, syncs, and closes.
func (l *DirLog) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.seq++
	if _, err := writeRecord(l.f, KindSeal, l.seq, nil); err != nil {
		l.f.Close()
		return fmt.Errorf("journal: seal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Close implements Log (no seal — the crash path).
func (l *DirLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// ReadRecordAt reads the single record at ref from the segment store in
// dir — O(record), no replay. It verifies the segment header and the
// record checksum, so a stale ref (pointing into a GC'd or rewritten
// segment) fails loudly instead of returning bytes from the wrong
// record. Safe concurrently with an appending DirLog: records are
// immutable once written and frames land in one write.
func ReadRecordAt(dir string, ref RecordRef) (Record, error) {
	if ref.Seg <= 0 {
		return Record{}, fmt.Errorf("journal: ReadRecordAt: ref %+v has no durable segment", ref)
	}
	f, err := os.Open(SegmentPath(dir, ref.Seg))
	if err != nil {
		return Record{}, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return Record{}, fmt.Errorf("%w: missing header: %v", ErrNotJournal, err)
	}
	if [8]byte(hdr[:8]) != Magic {
		return Record{}, fmt.Errorf("%w (magic %q)", ErrNotJournal, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return Record{}, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, v, Version)
	}
	if ref.Off < 12 {
		return Record{}, fmt.Errorf("journal: ReadRecordAt: offset %d inside header", ref.Off)
	}
	var rh [13]byte
	if _, err := f.ReadAt(rh[:], ref.Off); err != nil {
		return Record{}, fmt.Errorf("%w: record header at %d: %v", ErrCorrupt, ref.Off, err)
	}
	plen := binary.LittleEndian.Uint32(rh[9:13])
	if plen > maxPayload {
		return Record{}, fmt.Errorf("%w: record at %d declares a %d-byte payload (cap %d)", ErrCorrupt, ref.Off, plen, maxPayload)
	}
	buf := make([]byte, int(plen)+8)
	if _, err := f.ReadAt(buf, ref.Off+13); err != nil {
		return Record{}, fmt.Errorf("%w: record body at %d: %v", ErrCorrupt, ref.Off, err)
	}
	sum := fnv.New64a()
	sum.Write(rh[:])
	sum.Write(buf[:plen])
	if got := binary.LittleEndian.Uint64(buf[plen:]); got != sum.Sum64() {
		return Record{}, fmt.Errorf("%w: record at %d checksum mismatch (file %x, computed %x)", ErrCorrupt, ref.Off, got, sum.Sum64())
	}
	return Record{
		Kind:    Kind(rh[0]),
		Seq:     binary.LittleEndian.Uint64(rh[1:9]),
		Payload: buf[:plen:plen],
		Seg:     ref.Seg,
		Off:     ref.Off,
	}, nil
}
