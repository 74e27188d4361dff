// Package journal is the durable control plane's write-ahead log: an
// append-only, versioned, per-record-checksummed record stream that the
// serving layer writes dataset mutations, job submissions, state
// transitions and finished results into, and replays on start so a
// restarted server resumes its queue and re-serves completed results
// without recomputing anything.
//
// The format is versioned and checksums every record individually
// rather than the whole file: a write-ahead log's tail is cut mid-record
// whenever the process dies between write and close, and the reader must
// recover everything before the cut rather than rejecting the file.
// The two corruption classes are therefore distinguished deliberately:
//
//   - a truncated tail (the file ends before a record completes) is the
//     expected crash signature — Replay returns every record before the
//     cut and reports Truncated, and OpenDir additionally truncates the
//     active segment back to its last good record so appends continue
//     cleanly;
//   - a record that is fully present but fails its checksum (bit rot,
//     concurrent writers, hostile edit) is real corruption — Replay stops
//     there and returns ErrCorrupt, because records after a corrupt one
//     can no longer be trusted to be the records that were written.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "DPCJRNL\x00"
//	version  uint32   format version (currently 1)
//	records:
//	  kind   uint8    caller-defined record kind (see serve's vocabulary)
//	  seq    uint64   writer-assigned sequence number, strictly increasing
//	  plen   uint32   payload length in bytes
//	  payload[plen]
//	  check  uint64   FNV-1a over kind, seq, plen and payload bytes
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

// Magic prefixes every journal file.
var Magic = [8]byte{'D', 'P', 'C', 'J', 'R', 'N', 'L', 0}

// Version is the current format version; readers reject others with
// ErrVersion (a mixed-version file fails at open, not mid-replay).
const Version = 1

// maxPayload bounds one record's payload: journals are written by the
// server itself, but a corrupt or hostile length field must fail cleanly
// instead of allocating the process to death.
const maxPayload = 256 << 20

// Typed error classes replay callers switch on.
var (
	// ErrCorrupt marks a record that is fully present but fails its
	// checksum, or structurally impossible geometry (payload beyond the
	// format cap). Records before it are trustworthy; records after it
	// are not.
	ErrCorrupt = errors.New("journal: corrupt record")
	// ErrVersion marks a file whose header declares a format version this
	// build does not read.
	ErrVersion = errors.New("journal: unsupported format version")
	// ErrNotJournal marks a file that does not start with the magic.
	ErrNotJournal = errors.New("journal: not a journal file")
	// ErrClosed is returned by Append after Close or Seal.
	ErrClosed = errors.New("journal: log closed")
)

// Kind is a caller-defined record discriminator. The journal itself is
// payload-agnostic; the serving layer defines the vocabulary.
type Kind uint8

// KindSeal is the one kind the journal owns: a zero-payload record
// appended by Seal marking a clean shutdown. Replayers use its presence
// (as the final record) to distinguish a graceful close from a crash.
const KindSeal Kind = 0xFF

// RecordRef addresses one record durably: the segment it lives in and
// the byte offset of its frame within that segment file. Refs survive a
// restart (segments are immutable once written past), so a caller can
// keep an index of interesting records and read any one of them back in
// O(record) via ReadRecordAt instead of replaying the whole log. The
// zero ref (Seg 0) means "not durably addressed" — segment numbering
// starts at 1.
type RecordRef struct {
	Seg int
	Off int64
}

// Record is one replayed journal entry. Seg and Off form its RecordRef
// (Seg is 0 when the record was replayed from a bare stream rather than
// a segment store).
type Record struct {
	Kind    Kind
	Seq     uint64
	Payload []byte
	Seg     int
	Off     int64
}

// Ref returns the record's durable address.
func (r Record) Ref() RecordRef { return RecordRef{Seg: r.Seg, Off: r.Off} }

// Log is the write-ahead log surface the serving layer journals through.
// DirLog, the segmented and compactable store, implements it.
type Log interface {
	// Append durably adds one record and returns its durable address.
	// Sequence numbers are assigned by the log, strictly increasing
	// across Open/replay boundaries.
	Append(kind Kind, payload []byte) (RecordRef, error)
	// Seal appends the clean-shutdown marker and closes the log.
	Seal() error
	// Close closes the log without sealing (the crash path, and the
	// default on error).
	Close() error
}

// Compactor is the optional Log extension a segmented store provides:
// checkpointing folds the caller's state into one record at the head of
// a fresh segment, after which the segments before it are garbage.
type Compactor interface {
	// Checkpoint rotates to a new segment and writes payload (under kind)
	// as its first record, returning the record's address. Older segments
	// stay on disk until DropBefore removes them, so a crash between the
	// two replays the old chain plus the snapshot — never less.
	Checkpoint(kind Kind, payload []byte) (RecordRef, error)
	// DropBefore removes every segment numbered below seg, returning how
	// many were deleted.
	DropBefore(seg int) (int, error)
	// Segments reports how many live segments the log currently holds.
	Segments() int
}

// frameRecord builds one record's on-disk frame. Appenders write the
// whole frame in a single Write call, so a concurrent replayer (a GetJob
// falling back to the journal while the server keeps appending) sees
// either the complete record or none of it — never a torn middle.
func frameRecord(kind Kind, seq uint64, payload []byte) ([]byte, error) {
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("journal: payload of %d bytes exceeds the format cap %d", len(payload), maxPayload)
	}
	frame := make([]byte, 13+len(payload)+8)
	frame[0] = byte(kind)
	binary.LittleEndian.PutUint64(frame[1:9], seq)
	binary.LittleEndian.PutUint32(frame[9:13], uint32(len(payload)))
	copy(frame[13:], payload)
	sum := fnv.New64a()
	sum.Write(frame[:13+len(payload)])
	binary.LittleEndian.PutUint64(frame[13+len(payload):], sum.Sum64())
	return frame, nil
}

// writeRecord frames one record onto w, returning the bytes written.
func writeRecord(w io.Writer, kind Kind, seq uint64, payload []byte) (int, error) {
	frame, err := frameRecord(kind, seq, payload)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// ReplayResult is what a replay recovered and how the stream ended.
type ReplayResult struct {
	Records []Record
	// Sealed reports whether the final record was a clean-shutdown seal
	// (seal records are consumed, never returned in Records). A stream
	// that ends torn is never Sealed, even when the last intact record is
	// a seal: a torn record after a seal means the process came back,
	// appended, and crashed — crash semantics win.
	Sealed bool
	// Truncated reports that the stream ended mid-record — the crash
	// signature. The records before the cut are complete and valid.
	Truncated bool
	// GoodBytes is the stream offset just past the last valid record
	// (including the header); OpenDir truncates the active segment here.
	GoodBytes int64
}

// Replay reads a journal stream. A missing or short header is
// ErrNotJournal/ErrVersion; a truncated tail record recovers everything
// before it (Truncated set, no error); a fully-present record with a bad
// checksum returns the records before it alongside ErrCorrupt.
func Replay(r io.Reader) (ReplayResult, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var res ReplayResult
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return res, fmt.Errorf("%w: missing header: %v", ErrNotJournal, err)
	}
	if magic != Magic {
		return res, fmt.Errorf("%w (magic %q)", ErrNotJournal, magic[:])
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return res, fmt.Errorf("%w: missing version: %v", ErrNotJournal, err)
	}
	if version != Version {
		return res, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, version, Version)
	}
	res.GoodBytes = 12 // magic + version
	// torn marks the stream as ending mid-record. A trailing seal does
	// not survive a torn tail after it: the tear proves a later life
	// appended past the seal and crashed, so the stream as a whole ended
	// in a crash, not a clean shutdown.
	torn := func() (ReplayResult, error) {
		res.Truncated = true
		res.Sealed = false
		return res, nil
	}
	for {
		off := res.GoodBytes
		var hdr [13]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF {
				return torn()
			}
			return res, nil
		}
		kind := Kind(hdr[0])
		seq := binary.LittleEndian.Uint64(hdr[1:9])
		plen := binary.LittleEndian.Uint32(hdr[9:13])
		if plen > maxPayload {
			return res, fmt.Errorf("%w: record %d declares a %d-byte payload (cap %d)", ErrCorrupt, len(res.Records), plen, maxPayload)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return torn()
		}
		var check [8]byte
		if _, err := io.ReadFull(br, check[:]); err != nil {
			return torn()
		}
		sum := fnv.New64a()
		sum.Write(hdr[:])
		sum.Write(payload)
		if got := binary.LittleEndian.Uint64(check[:]); got != sum.Sum64() {
			return res, fmt.Errorf("%w: record %d checksum mismatch (file %x, computed %x)", ErrCorrupt, len(res.Records), got, sum.Sum64())
		}
		res.GoodBytes += int64(13 + len(payload) + 8)
		if kind == KindSeal {
			// A seal mid-file (server sealed, restarted, appended more)
			// clears on the next record; only a trailing seal means clean.
			res.Sealed = true
			continue
		}
		res.Sealed = false
		res.Records = append(res.Records, Record{Kind: kind, Seq: seq, Payload: payload, Off: off})
	}
}
