package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpc/internal/journal"
)

// TestCompactSnapshotRoundTrip is the compaction round trip: a server
// forced onto tiny segments journals enough to rotate several times, a
// snapshot checkpoint supersedes and GCs the old segments, and the next
// life restores from snapshot + suffix — fewer records replayed than were
// written, and finished results byte-identical.
func TestCompactSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, SegmentBytes: 4096}
	a, s1 := newAPI(t, cfg)

	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(300, 3, 7)},
		http.StatusCreated, nil)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tb2", Points: testPoints(150, 3, 11)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 3, T: 5, Seed: 42}, http.StatusAccepted, &job)
	done := waitJob(t, a, job.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}

	appended := s1.counters.journalAppended.Load()
	comp := s1.jnl.(journal.Compactor)
	if comp.Segments() < 3 {
		t.Fatalf("only %d segments before compaction; SegmentBytes did not force rotation", comp.Segments())
	}

	var stats CompactStats
	a.do("POST", "/v1/admin/compact", nil, http.StatusOK, &stats)
	if stats.SegmentsRemoved < 2 || stats.Datasets != 2 || stats.Jobs != 1 {
		t.Fatalf("compact stats: %+v", stats)
	}
	if _, err := os.Stat(journal.SegmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("segment 1 still on disk after GC (err=%v)", err)
	}

	// Suffix traffic after the checkpoint: an append the snapshot has not
	// seen must still replay.
	a.do("POST", "/v1/datasets/tbl/points", appendPointsRequest{Points: testPoints(50, 3, 8)},
		http.StatusOK, nil)
	s1.Close()

	b, s2 := newAPI(t, cfg)
	rec := s2.Recovery()
	if !rec.FromSnapshot || rec.SnapshotSegment != stats.Segment {
		t.Fatalf("recovery did not restore from the snapshot: %+v", rec)
	}
	if int64(rec.Records) >= appended {
		t.Fatalf("replayed %d records, want fewer than the %d appended before compaction", rec.Records, appended)
	}
	var info DatasetInfo
	b.do("GET", "/v1/datasets/tbl", nil, http.StatusOK, &info)
	if info.Points != 350 {
		t.Fatalf("table after snapshot+suffix replay: %+v", info)
	}
	b.do("GET", "/v1/datasets/tb2", nil, http.StatusOK, &info)
	if info.Points != 150 {
		t.Fatalf("second table after snapshot replay: %+v", info)
	}
	// Finished result byte-identical, zero recompute.
	var again Job
	b.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &again)
	if !again.Replayed || !reflect.DeepEqual(again.Result.Centers, done.Result.Centers) {
		t.Fatalf("replayed job diverged (replayed=%v)", again.Replayed)
	}
	if got := s2.counters.jobsDone.Load(); got != 0 {
		t.Fatalf("jobsDone = %d after replay, want 0", got)
	}
}

// TestCompactCrashBeforeGC: a crash between Checkpoint and DropBefore
// leaves superseded segments on disk; the next Recover restores from the
// snapshot anyway and finishes the interrupted GC itself.
func TestCompactCrashBeforeGC(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalDir: dir, SegmentBytes: 4096}
	a, s1 := newAPI(t, cfg)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(300, 3, 7)},
		http.StatusCreated, nil)

	// Checkpoint without the GC — the crash window.
	s1.snapMu.Lock()
	snap := s1.buildSnapshot()
	s1.snapMu.Unlock()
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s1.jnl.(journal.Compactor).Checkpoint(recSnapshot, payload)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Seg < 2 {
		t.Fatalf("checkpoint landed in segment %d, want a fresh one", ref.Seg)
	}
	s1.Close()

	_, s2 := newAPI(t, cfg)
	rec := s2.Recovery()
	if !rec.FromSnapshot || rec.SnapshotSegment != ref.Seg {
		t.Fatalf("recovery: %+v", rec)
	}
	if got := s2.counters.segmentsGCd.Load(); got < 1 {
		t.Fatalf("recover did not finish the interrupted GC (segmentsGCd=%d)", got)
	}
	if _, err := os.Stat(journal.SegmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("superseded segment survived recovery (err=%v)", err)
	}
	if n := s2.reg.Count(); n != 1 {
		t.Fatalf("datasets after recovery: %d", n)
	}
}

// TestRetiredKindSnapshotIsARecoveryError: a snapshot that carries a
// dataset of a kind this server no longer builds — a stream sketch's
// record, as an older server checkpointed it (testdata/journal-v1 holds
// one) — is a recovery error naming the dataset and the kind. The dataset
// is dropped, so an append journaled after the checkpoint fails replay
// cleanly too, and the rest of the snapshot restores.
func TestRetiredKindSnapshotIsARecoveryError(t *testing.T) {
	cfg := Config{JournalDir: t.TempDir()}
	a, s1 := newAPI(t, cfg)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "str", Points: testPoints(40, 3, 11)},
		http.StatusCreated, nil)
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(30, 3, 12)},
		http.StatusCreated, nil)

	// Checkpoint with "str" recorded as the stream sketch an older server
	// wrote, beside the live table.
	s1.snapMu.Lock()
	snap := s1.buildSnapshot()
	s1.snapMu.Unlock()
	if len(snap.Datasets) != 2 || snap.Datasets[0].Name != "str" {
		t.Fatalf("snapshot datasets: %+v", snap.Datasets)
	}
	tbl, err := json.Marshal(snap.Datasets[1])
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(struct {
		Datasets []json.RawMessage `json:"datasets"`
		Seq      int               `json:"seq"`
	}{[]json.RawMessage{
		json.RawMessage(`{"name":"str","kind":"stream","k":3,"t":2,"chunk":64,"seed":9,` +
			`"summary":[[1,2,3],[4,5,6]],"weights":[30,10],"compressions":1,"ingested":40,"dim":3}`),
		tbl,
	}, snap.Seq})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.jnl.(journal.Compactor).Checkpoint(recSnapshot, payload); err != nil {
		t.Fatal(err)
	}
	a.do("POST", "/v1/datasets/str/points", appendPointsRequest{Points: testPoints(64, 3, 12)},
		http.StatusOK, nil)
	s1.Close()

	b, s2 := newAPI(t, cfg)
	rec := s2.Recovery()
	if !rec.FromSnapshot || len(rec.Errors) != 2 ||
		!strings.Contains(rec.Errors[0], `snapshot dataset "str"`) || !strings.Contains(rec.Errors[0], `kind "stream"`) ||
		!strings.Contains(rec.Errors[1], `append to "str"`) {
		t.Fatalf("recovery: %+v, want the snapshot's unknown-kind error, then the append's", rec)
	}
	b.do("GET", "/v1/datasets/str", nil, http.StatusNotFound, nil)
	var info DatasetInfo
	b.do("GET", "/v1/datasets/tbl", nil, http.StatusOK, &info)
	if info.Points != 30 {
		t.Fatalf("table restored beside the retired kind: %+v", info)
	}
}

// TestEvictedJobFetchIsOneRead is the O(history) regression guard: a
// fetch of a TTL-evicted finished job costs exactly one journal record
// read via the finish index — never a replay of the log, no matter how
// much unrelated history sits in it.
func TestEvictedJobFetchIsOneRead(t *testing.T) {
	dir := t.TempDir()
	a, s := newAPI(t, Config{JournalDir: dir, JobTTL: time.Millisecond})

	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(200, 3, 3)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 3, T: 2, Seed: 1}, http.StatusAccepted, &job)
	done := waitJob(t, a, job.ID)
	if done.Status != StatusDone {
		t.Fatalf("job: %+v", done)
	}
	// Pad the log with history the fetch must not touch.
	for i := 0; i < 25; i++ {
		a.do("POST", "/v1/datasets/tbl/points", appendPointsRequest{Points: testPoints(20, 2, int64(i))},
			http.StatusOK, nil)
	}

	// Evict the finished job (sweep far in the future beats waiting).
	s.sweep(time.Now().Add(time.Hour))
	s.mu.Lock()
	_, inMemory := s.jobs[job.ID]
	s.mu.Unlock()
	if inMemory {
		t.Fatal("job not evicted by the sweep")
	}

	var again Job
	a.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &again)
	if !again.Replayed || !reflect.DeepEqual(again.Result.Centers, done.Result.Centers) {
		t.Fatalf("evicted job fetch diverged (replayed=%v)", again.Replayed)
	}
	if reads := s.counters.journalReads.Load(); reads != 1 {
		t.Fatalf("evicted fetch cost %d record reads, want exactly 1", reads)
	}
	// Each further fetch costs one more read, not a growing replay.
	a.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &again)
	if reads := s.counters.journalReads.Load(); reads != 2 {
		t.Fatalf("second fetch brought total reads to %d, want 2", reads)
	}
}

// TestEvictedJobFetchAfterCompaction: compaction folds retained finished
// jobs into the snapshot; a job evicted AFTER the snapshot still fetches
// (one read, via the checkpoint record) even though its original finish
// record's segment is gone.
func TestEvictedJobFetchAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	a, s := newAPI(t, Config{JournalDir: dir, SegmentBytes: 4096, JobTTL: time.Millisecond})

	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(200, 3, 3)},
		http.StatusCreated, nil)
	var job Job
	a.do("POST", "/v1/jobs", JobSpec{Dataset: "tbl", K: 3, T: 2, Seed: 1}, http.StatusAccepted, &job)
	done := waitJob(t, a, job.ID)

	var stats CompactStats
	a.do("POST", "/v1/admin/compact", nil, http.StatusOK, &stats)
	if stats.Jobs != 1 {
		t.Fatalf("compact stats: %+v", stats)
	}
	s.sweep(time.Now().Add(time.Hour))

	var again Job
	a.do("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &again)
	if !again.Replayed || !reflect.DeepEqual(again.Result.Centers, done.Result.Centers) {
		t.Fatalf("post-compaction evicted fetch diverged (replayed=%v)", again.Replayed)
	}
	if reads := s.counters.journalReads.Load(); reads != 1 {
		t.Fatalf("post-compaction fetch cost %d reads, want 1", reads)
	}
}

// failLog wraps a real journal and fails every Append — the fault
// injection behind the ordering tests below.
type failLog struct{ journal.Log }

func (failLog) Append(journal.Kind, []byte) (journal.RecordRef, error) {
	return journal.RecordRef{}, errors.New("injected journal failure")
}

// holdLog wraps a real journal and holds every job-finish append until
// release is closed, signalling held as each one arrives.
type holdLog struct {
	journal.Log
	held, release chan struct{}
}

func (l holdLog) Append(kind journal.Kind, payload []byte) (journal.RecordRef, error) {
	if kind == recJobFinish {
		l.held <- struct{}{}
		<-l.release
	}
	return l.Log.Append(kind, payload)
}

// TestJobFinishJournaledBeforeVisible: a job shows as done only once its
// finish record is in the journal. While the append is held the job still
// reads as running, so a crash at that moment cannot rerun a job a client
// already saw finish.
func TestJobFinishJournaledBeforeVisible(t *testing.T) {
	s := New(Config{JournalDir: t.TempDir()})
	defer s.Close()
	if _, err := s.Registry().RegisterTable("d", rowsToPoints(testPoints(60, 2, 8))); err != nil {
		t.Fatal(err)
	}
	hl := holdLog{held: make(chan struct{}), release: make(chan struct{})}
	s.mu.Lock()
	hl.Log = s.jnl
	s.jnl = hl
	s.mu.Unlock()

	j, err := s.Submit(JobSpec{Dataset: "d", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hl.held:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never journaled its finish")
	}
	got, err := s.GetJob(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	close(hl.release)
	if got.Status != StatusRunning {
		t.Fatalf("job reads %s before its finish record is journaled, want %s", got.Status, StatusRunning)
	}
	if done := waitServerJob(t, s, j.ID); done.Status != StatusDone {
		t.Fatalf("job after the append: %+v", done)
	}
}

// TestAppendJournalFailureLeavesMemoryClean pins the append handler's
// journal-before-apply order: when the journal write fails, the request
// fails 500 AND the points never become visible — before this ordering, a
// failed journal left the points readable in memory but absent from the
// log, so a restart silently shrank the dataset. The create path uses the
// opposite order (apply, journal, roll back on failure); both orders must
// leave memory and log agreeing.
func TestAppendJournalFailureLeavesMemoryClean(t *testing.T) {
	dir := t.TempDir()
	a, s := newAPI(t, Config{JournalDir: dir})

	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl", Points: testPoints(100, 3, 3)},
		http.StatusCreated, nil)
	var before DatasetInfo
	a.do("GET", "/v1/datasets/tbl", nil, http.StatusOK, &before)

	s.mu.Lock()
	real := s.jnl
	s.jnl = failLog{real}
	s.mu.Unlock()

	// Journal-before-apply: the failed append must not mutate the dataset.
	a.do("POST", "/v1/datasets/tbl/points", appendPointsRequest{Points: testPoints(50, 2, 4)},
		http.StatusInternalServerError, nil)
	var after DatasetInfo
	a.do("GET", "/v1/datasets/tbl", nil, http.StatusOK, &after)
	if after.Points != before.Points || after.Version != before.Version {
		t.Fatalf("failed append mutated the dataset: %+v -> %+v", before, after)
	}

	// Apply-then-rollback on the create path: the failed registration must
	// not leave a dataset squatting on the name.
	a.do("POST", "/v1/datasets", createDatasetRequest{Name: "tbl2", Points: testPoints(50, 2, 5)},
		http.StatusInternalServerError, nil)
	a.do("GET", "/v1/datasets/tbl2", nil, http.StatusNotFound, nil)

	s.mu.Lock()
	s.jnl = real
	s.mu.Unlock()

	// With the journal healthy again both paths work, and a restart agrees
	// with what clients were told: 100 + 50 points, one dataset.
	a.do("POST", "/v1/datasets/tbl/points", appendPointsRequest{Points: testPoints(50, 2, 4)},
		http.StatusOK, nil)
	s.Close()

	b, _ := newAPI(t, Config{JournalDir: dir})
	var replayed DatasetInfo
	b.do("GET", "/v1/datasets/tbl", nil, http.StatusOK, &replayed)
	if replayed.Points != 150 {
		t.Fatalf("replayed dataset: %+v", replayed)
	}
	b.do("GET", "/v1/datasets/tbl2", nil, http.StatusNotFound, nil)
}
