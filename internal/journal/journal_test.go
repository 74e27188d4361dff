package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendN appends n records with distinguishable payloads.
func appendN(t *testing.T, l Log, n, base int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(Kind(1+i%3), fmt.Appendf(nil, "payload-%03d", base+i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestSegmentRoundTrip, like every record-format test in this file, drives
// the stream format through a one-segment DirLog: the file under test is
// SegmentPath(dir, 1).
func TestSegmentRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j", "nested")
	l, res, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if len(res.Records) != 0 || res.Sealed || res.Truncated {
		t.Fatalf("fresh journal replayed %+v", res)
	}
	appendN(t, l, 7, 0)
	if err := l.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}

	l2, res2, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !res2.Sealed {
		t.Errorf("sealed journal not reported sealed")
	}
	if len(res2.Records) != 7 {
		t.Fatalf("replayed %d records, want 7", len(res2.Records))
	}
	for i, rec := range res2.Records {
		if want := fmt.Sprintf("payload-%03d", i); string(rec.Payload) != want {
			t.Errorf("record %d payload %q, want %q", i, rec.Payload, want)
		}
		if rec.Kind != Kind(1+i%3) {
			t.Errorf("record %d kind %d, want %d", i, rec.Kind, 1+i%3)
		}
		if i > 0 && rec.Seq <= res2.Records[i-1].Seq {
			t.Errorf("record %d seq %d not increasing past %d", i, rec.Seq, res2.Records[i-1].Seq)
		}
	}
	// Sequence numbers keep climbing across lives: a third life must see
	// strictly larger seqs on the appended records.
	appendN(t, l2, 2, 7)
	if err := l2.Close(); err != nil { // crash path: no seal
		t.Fatalf("close: %v", err)
	}
	l3, res3, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	if res3.Sealed {
		t.Errorf("unsealed (crashed) journal reported sealed")
	}
	if len(res3.Records) != 9 {
		t.Fatalf("replayed %d records after append life, want 9", len(res3.Records))
	}
	if res3.Records[8].Seq <= res3.Records[6].Seq {
		t.Errorf("seq did not advance across lives: %d then %d", res3.Records[6].Seq, res3.Records[8].Seq)
	}
}

// TestTruncatedTailRecovers covers the WAL's crash signature: chopping
// bytes off the tail at every possible offset of the final record must
// recover exactly the records before it, and the repaired file must accept
// appends again.
func TestTruncatedTailRecovers(t *testing.T) {
	tmp := t.TempDir()
	full := filepath.Join(tmp, "full")
	l, _, err := OpenDir(full, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(SegmentPath(full, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The last record is 13 (header) + 11 (payload "payload-004") + 8
	// (check) bytes. Cut at every offset inside it.
	recBytes := 13 + 11 + 8
	for cut := 1; cut < recBytes; cut++ {
		// A directory holding only segment 1 (no manifest yet) is adopted.
		dir := filepath.Join(tmp, fmt.Sprintf("cut-%02d", cut))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(SegmentPath(dir, 1), raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, res, err := OpenDir(dir, DirOptions{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if !res.Truncated {
			t.Errorf("cut %d: truncation not reported", cut)
		}
		if len(res.Records) != 4 {
			t.Fatalf("cut %d: recovered %d records, want 4", cut, len(res.Records))
		}
		// The repaired journal must keep working: append and re-replay.
		if _, err := l2.Append(9, []byte("after-repair")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, res2, err := OpenDir(dir, DirOptions{})
		if err != nil {
			t.Fatalf("cut %d: reopen after repair: %v", cut, err)
		}
		l3.Close()
		if len(res2.Records) != 5 || string(res2.Records[4].Payload) != "after-repair" {
			t.Fatalf("cut %d: post-repair replay got %d records", cut, len(res2.Records))
		}
	}
}

// TestFlippedChecksumRejected: a record that is fully present but fails
// its checksum is corruption, not a crash — replay must surface the typed
// error, and OpenDir must refuse to append after it.
func TestFlippedChecksumRejected(t *testing.T) {
	dir := t.TempDir()
	path := SegmentPath(dir, 1)
	l, _, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle record's payload (past the header and
	// first record).
	rec := 13 + 11 + 8
	raw[12+rec+13+4] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Replay(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of flipped record: err = %v, want ErrCorrupt", err)
	}
	if len(res.Records) != 1 {
		t.Errorf("replay recovered %d records before the corruption, want 1", len(res.Records))
	}
	if l, _, err := OpenDir(dir, DirOptions{}); !errors.Is(err, ErrCorrupt) || l != nil {
		t.Fatalf("OpenDir on corrupt journal: log = %v, err = %v, want no log and ErrCorrupt", l, err)
	}
}

// TestMixedVersionRejected: files from a different format version fail
// with the typed version error, never a partial parse.
func TestMixedVersionRejected(t *testing.T) {
	dir := t.TempDir()
	path := SegmentPath(dir, 1)
	l, _, err := OpenDir(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], Version+1)
	if _, err := Replay(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
		t.Fatalf("replay of v%d file: err = %v, want ErrVersion", Version+1, err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, DirOptions{}); !errors.Is(err, ErrVersion) {
		t.Fatalf("OpenDir on v%d file: err = %v, want ErrVersion", Version+1, err)
	}

	// Not a journal at all.
	if err := os.WriteFile(path, []byte("definitely not a journal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, DirOptions{}); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("OpenDir on garbage: err = %v, want ErrNotJournal", err)
	}
}

// TestOversizedPayloadRejected: hostile length fields fail cleanly.
func TestOversizedPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(Version))
	var hdr [13]byte
	hdr[0] = 1
	binary.LittleEndian.PutUint32(hdr[9:13], maxPayload+1)
	buf.Write(hdr[:])
	if _, err := Replay(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized payload: err = %v, want ErrCorrupt", err)
	}
}
