package journal

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestSealThenTornTailIsNotSealed pins satellite-bug semantics: a stream
// whose last intact record is a seal but which ends mid-record (crash
// during a post-restart append) is a crash, not a clean shutdown —
// Sealed must be false whenever Truncated is true.
func TestSealThenTornTailIsNotSealed(t *testing.T) {
	dir := t.TempDir()
	path := SegmentPath(dir, 1)
	l, _, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 0)
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// Simulate a next life appending past the seal and dying mid-record:
	// hand-frame a record and write only part of it.
	frame, err := frameRecord(3, 99, []byte("torn-after-seal"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, res, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatalf("open seal+torn journal: %v", err)
	}
	defer l2.Close()
	if !res.Truncated {
		t.Error("torn tail after seal not reported truncated")
	}
	if res.Sealed {
		t.Error("Sealed=true on a stream ending torn: crash semantics must win")
	}
	if len(res.Records) != 2 {
		t.Errorf("recovered %d records, want 2", len(res.Records))
	}
}

func TestDirLogRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: "payload-%03d" records are 13+11+8 = 32 bytes, so a
	// 100-byte threshold rotates every third append or so.
	l, res, err := OpenDir(dir, DirOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatalf("open fresh dir: %v", err)
	}
	if len(res.Records) != 0 || res.Sealed || res.Truncated {
		t.Fatalf("fresh dir replayed %+v", res)
	}
	refs := make([]RecordRef, 0, 10)
	for i := 0; i < 10; i++ {
		ref, err := l.Append(Kind(1+i%3), fmt.Appendf(nil, "payload-%03d", i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		refs = append(refs, ref)
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("10 x 32-byte records across 100-byte segments: %d segments, want >= 3", got)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}

	l2, res2, err := OpenDir(dir, DirOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !res2.Sealed {
		t.Error("sealed dir log not reported sealed")
	}
	if len(res2.Records) != 10 {
		t.Fatalf("replayed %d records, want 10", len(res2.Records))
	}
	for i, rec := range res2.Records {
		if want := fmt.Sprintf("payload-%03d", i); string(rec.Payload) != want {
			t.Errorf("record %d payload %q, want %q", i, rec.Payload, want)
		}
		if rec.Ref() != refs[i] {
			t.Errorf("record %d replayed ref %+v, appended ref %+v", i, rec.Ref(), refs[i])
		}
		if i > 0 && rec.Seq <= res2.Records[i-1].Seq {
			t.Errorf("record %d seq not increasing", i)
		}
	}
	// Every appended ref must read back the exact record, concurrently
	// with the live appender.
	for i, ref := range refs {
		rec, err := ReadRecordAt(dir, ref)
		if err != nil {
			t.Fatalf("ReadRecordAt(%+v): %v", ref, err)
		}
		if want := fmt.Sprintf("payload-%03d", i); string(rec.Payload) != want {
			t.Errorf("ref %d read back %q, want %q", i, rec.Payload, want)
		}
	}
	l2.Close()
}

func TestDirLogCheckpointAndDrop(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir, DirOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, fmt.Appendf(nil, "payload-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	ref, err := l.Checkpoint(7, []byte("snapshot-state"))
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ref.Seg <= before {
		t.Fatalf("checkpoint landed in segment %d, want a fresh one past %d", ref.Seg, before)
	}
	if ref.Off != 12 {
		t.Errorf("checkpoint record at offset %d, want 12 (first record of its segment)", ref.Off)
	}
	// Post-snapshot suffix.
	if _, err := l.Append(1, []byte("suffix-record")); err != nil {
		t.Fatal(err)
	}
	dropped, err := l.DropBefore(ref.Seg)
	if err != nil {
		t.Fatalf("drop: %v", err)
	}
	if dropped != before {
		t.Errorf("dropped %d segments, want %d", dropped, before)
	}
	for s := 1; s <= before; s++ {
		if _, err := os.Stat(SegmentPath(dir, s)); !os.IsNotExist(err) {
			t.Errorf("superseded segment %d still on disk (err=%v)", s, err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}

	// Replay is snapshot + suffix only.
	_, res, err := OpenDir(dir, DirOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("replayed %d records after compaction, want 2 (snapshot + suffix)", len(res.Records))
	}
	if res.Records[0].Kind != 7 || string(res.Records[0].Payload) != "snapshot-state" {
		t.Errorf("first replayed record is not the snapshot: %+v", res.Records[0])
	}
	if string(res.Records[1].Payload) != "suffix-record" {
		t.Errorf("second replayed record is not the suffix: %+v", res.Records[1])
	}
	if res.Records[0].Ref() != ref {
		t.Errorf("snapshot replayed at %+v, checkpointed at %+v", res.Records[0].Ref(), ref)
	}
	// A stale ref into a dropped segment fails loudly, never silently
	// returns wrong bytes.
	if _, err := ReadRecordAt(dir, RecordRef{Seg: 1, Off: 12}); err == nil {
		t.Error("ReadRecordAt on a GC'd segment succeeded")
	}
}

// TestDirLogOrphanSegmentsDeleted: segment files the manifest does not
// name (a rotation or GC that crashed mid-way) are removed at open.
func TestDirLogOrphanSegmentsDeleted(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	l.Close()
	// Plant an orphan: a valid-looking segment 9 no manifest names.
	f, err := createSegment(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, res, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(res.Records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(res.Records))
	}
	if _, err := os.Stat(SegmentPath(dir, 9)); !os.IsNotExist(err) {
		t.Errorf("orphan segment survived open (err=%v)", err)
	}
}

// TestDirLogTornTailSemantics: the crash tail repairs in place, but only
// on the final segment — a torn middle segment is corruption.
func TestDirLogTornTailSemantics(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenDir(dir, DirOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, fmt.Appendf(nil, "payload-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("want >= 3 segments, got %d", segs)
	}
	l.Close()

	// Tear the final segment's tail: recovered, truncated, appendable.
	last := SegmentPath(dir, segs)
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, res, err := OpenDir(dir, DirOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatalf("open with torn final segment: %v", err)
	}
	if !res.Truncated || res.Sealed {
		t.Errorf("torn final segment: truncated=%t sealed=%t, want true/false", res.Truncated, res.Sealed)
	}
	if len(res.Records) != 9 {
		t.Errorf("recovered %d records, want 9", len(res.Records))
	}
	if _, err := l2.Append(1, []byte("after-repair")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l2.Close()

	// Tear a middle segment: corruption, recovered prefix + ErrCorrupt.
	mid := SegmentPath(dir, 1)
	raw, err = os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mid, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, DirOptions{SegmentBytes: 100}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn middle segment: err = %v, want ErrCorrupt", err)
	}
}
