package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dpc/internal/journal"
)

// The serve layer's journal vocabulary. Every control-plane mutation the
// server cannot recompute — dataset registrations, appends, deletes, job
// submissions, state transitions and finished results — appends one
// record here, and Recover replays them on start so a restarted server
// resumes its queue and re-serves completed results with no re-ingest and
// no recompute. Remote datasets are the one exception: they are live TCP
// connections owned by the server process, re-established by dpc-site's
// redial loop rather than by replay.
const (
	recDatasetPut    journal.Kind = 1
	recDatasetAppend journal.Kind = 2
	recDatasetDelete journal.Kind = 3
	recJobSubmit     journal.Kind = 4
	recJobStart      journal.Kind = 5
	recJobFinish     journal.Kind = 6
	// recSnapshot is a checkpoint: the complete registry + job state as of
	// one instant, written as the first record of a fresh segment by
	// Server.Compact. Replay restores from the last snapshot and applies
	// only the records after it; segments before it are garbage.
	recSnapshot journal.Kind = 7
)

// walDataset is a dataset registration record: the union of the two
// journalable kinds (table points, uncertain ground + nodes), each kind
// filling only its own fields. Inside a snapshot the same shape carries the
// full current state instead of the registration-time one: a table's
// Points are the whole grown table, with its Dim. Registry.put builds a
// dataset from either form. Fields of a retired kind in an old journal's
// records (a stream's k, t, chunk, summary, ...) are ignored when decoded;
// put rejects the kind itself.
type walDataset struct {
	Name   string      `json:"name"`
	Kind   DatasetKind `json:"kind"`
	Points [][]float64 `json:"points,omitempty"`
	Ground [][]float64 `json:"ground,omitempty"`
	Nodes  []NodeWire  `json:"nodes,omitempty"`
	Dim    int         `json:"dim,omitempty"`
}

// walSnapshot is a checkpoint record's payload: every dataset's full
// state (remote datasets excepted — they are live TCP connections
// re-established by dpc-site's redial loop), every finished job still
// retained in memory, every queued-or-running job (replay requeues
// running jobs — their work died with the process), and the job-id
// sequence floor so compaction can never cause an id to be reissued.
type walSnapshot struct {
	Datasets []walDataset `json:"datasets,omitempty"`
	Jobs     []walFinish  `json:"jobs,omitempty"`
	Queued   []walSubmit  `json:"queued,omitempty"`
	Seq      int          `json:"seq"`
}

// walAppend is a dataset append record.
type walAppend struct {
	Name   string      `json:"name"`
	Points [][]float64 `json:"points"`
}

// walDelete is a dataset delete record.
type walDelete struct {
	Name string `json:"name"`
}

// walSubmit is a job submission record.
type walSubmit struct {
	ID        string    `json:"id"`
	Spec      JobSpec   `json:"spec"`
	Submitted time.Time `json:"submitted"`
}

// walStart is a job state transition to running.
type walStart struct {
	ID      string    `json:"id"`
	Started time.Time `json:"started"`
}

// walFinish is a job's terminal record. It embeds the spec alongside the
// outcome so one record reconstructs the whole job — the lookup path for
// results whose in-memory job was evicted by the TTL GC.
type walFinish struct {
	ID        string     `json:"id"`
	Spec      JobSpec    `json:"spec"`
	Status    string     `json:"status"`
	Error     string     `json:"error,omitempty"`
	ErrorCode string     `json:"error_code,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  time.Time  `json:"finished"`
}

// journalAppend marshals v and appends it under kind, returning the
// record's durable address. A nil journal is a no-op (journaling is
// opt-in; the zero ref means "not journaled"); an append error is
// returned so callers decide whether to roll the mutation back or
// degrade. Callers that mutate-then-journal (or journal-then-mutate)
// around a ref-addressable record hold s.snapMu.RLock across the pair so
// a concurrent snapshot never splits them; journalAppend itself takes no
// barrier, which keeps the read-lock non-reentrant.
func (s *Server) journalAppend(kind journal.Kind, v any) (journal.RecordRef, error) {
	s.mu.Lock()
	jnl := s.jnl
	s.mu.Unlock()
	if jnl == nil {
		return journal.RecordRef{}, nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return journal.RecordRef{}, fmt.Errorf("serve: journal encode: %w", err)
	}
	ref, err := jnl.Append(kind, payload)
	if err != nil {
		return journal.RecordRef{}, fmt.Errorf("serve: journal append: %w", err)
	}
	s.counters.journalAppended.Add(1)
	return ref, nil
}

// RecoveryStats summarizes one journal replay.
type RecoveryStats struct {
	// Records is how many journal records were applied: the snapshot (if
	// any) counts as one, plus every record after it. Records before the
	// last snapshot are superseded and not counted (after compaction GC
	// they are not even on disk).
	Records int
	// FromSnapshot reports that replay restored from a checkpoint record
	// plus the suffix after it, rather than the whole history.
	FromSnapshot bool
	// SnapshotSegment is the segment holding the snapshot restored from
	// (0 without one); segments below it are garbage.
	SnapshotSegment int
	// SnapshotDatasets and SnapshotJobs count what the snapshot itself
	// restored (suffix records may add more).
	SnapshotDatasets int
	SnapshotJobs     int
	// Datasets is how many datasets exist after replay (registrations
	// minus deletes).
	Datasets int
	// JobsReplayed is how many finished jobs were restored with their
	// results — re-servable with zero recompute.
	JobsReplayed int
	// JobsResumed is how many journaled-but-unfinished jobs were requeued.
	JobsResumed int
	// Sealed reports whether the journal ended with a clean-shutdown seal.
	Sealed bool
	// Truncated reports that a torn tail record was cut (the crash
	// signature; everything before it was recovered).
	Truncated bool
	// Errors collects records that no longer apply (e.g. an append to a
	// dataset deleted later in the log). Replay continues past them.
	Errors []string
}

// walJob is replay's in-flight picture of one journaled job.
type walJob struct {
	submit walSubmit
	finish *walFinish
	ref    journal.RecordRef // durable address of the finish record (or the snapshot carrying it)
}

// applyWAL replays journal records into the registry and job store. It
// runs before the server is ready (no API traffic, no journaling of the
// mutations it applies — they are already in the log). When the records
// contain a snapshot checkpoint, state restores from the latest one and
// only the records after it apply — restart cost is O(state + suffix),
// not O(history). Unfinished jobs are requeued through the scheduler
// like a fresh submission, except that no new submit record is written
// and QueueDepth does not apply: every journaled job was accepted once.
func (s *Server) applyWAL(records []journal.Record) RecoveryStats {
	var stats RecoveryStats
	jobs := make(map[string]*walJob)
	var order []string
	oops := func(format string, args ...any) {
		stats.Errors = append(stats.Errors, fmt.Sprintf(format, args...))
	}

	// Restore from the latest decodable snapshot; everything before it is
	// superseded (normally already GC'd from disk — a crash between
	// Checkpoint and DropBefore leaves the old chain, which replay skips).
	var snapSeq int
	snapAt := -1
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Kind != recSnapshot {
			continue
		}
		var snap walSnapshot
		if err := json.Unmarshal(records[i].Payload, &snap); err != nil {
			oops("snapshot record seq %d: %v", records[i].Seq, err)
			continue
		}
		snapAt = i
		stats.FromSnapshot = true
		stats.SnapshotSegment = records[i].Seg
		snapSeq = snap.Seq
		for _, wd := range snap.Datasets {
			if _, err := s.reg.put(wd); err != nil {
				oops("snapshot dataset %q: %v", wd.Name, err)
			}
		}
		stats.SnapshotDatasets = len(snap.Datasets)
		for _, wf := range snap.Jobs {
			wf := wf
			jobs[wf.ID] = &walJob{
				submit: walSubmit{ID: wf.ID, Spec: wf.Spec, Submitted: wf.Submitted},
				finish: &wf,
				ref:    records[i].Ref(),
			}
			order = append(order, wf.ID)
		}
		stats.SnapshotJobs = len(snap.Jobs)
		for _, ws := range snap.Queued {
			if _, ok := jobs[ws.ID]; !ok {
				jobs[ws.ID] = &walJob{submit: ws}
				order = append(order, ws.ID)
			}
		}
		break
	}
	stats.Records = len(records) - (snapAt + 1)
	if snapAt >= 0 {
		stats.Records++ // the snapshot itself counts as one applied record
	}

	for _, rec := range records[snapAt+1:] {
		switch rec.Kind {
		case recDatasetPut:
			var wd walDataset
			if err := json.Unmarshal(rec.Payload, &wd); err != nil {
				oops("dataset record seq %d: %v", rec.Seq, err)
				continue
			}
			if _, err := s.reg.put(wd); err != nil {
				oops("dataset %q: %v", wd.Name, err)
			}
		case recDatasetAppend:
			var wa walAppend
			if err := json.Unmarshal(rec.Payload, &wa); err != nil {
				oops("append record seq %d: %v", rec.Seq, err)
				continue
			}
			if _, err := s.reg.Append(wa.Name, rowsToPoints(wa.Points)); err != nil {
				oops("append to %q: %v", wa.Name, err)
			}
		case recDatasetDelete:
			var wd walDelete
			if err := json.Unmarshal(rec.Payload, &wd); err != nil {
				oops("delete record seq %d: %v", rec.Seq, err)
				continue
			}
			if err := s.reg.Delete(wd.Name); err != nil {
				oops("delete %q: %v", wd.Name, err)
			}
		case recJobSubmit:
			var ws walSubmit
			if err := json.Unmarshal(rec.Payload, &ws); err != nil {
				oops("submit record seq %d: %v", rec.Seq, err)
				continue
			}
			if wj, ok := jobs[ws.ID]; ok {
				// Already known (the snapshot captured the job between its
				// in-memory creation and this record landing); keep any
				// finish state, refresh the submission detail.
				wj.submit = ws
			} else {
				order = append(order, ws.ID)
				jobs[ws.ID] = &walJob{submit: ws}
			}
		case recJobStart:
			// Present for the record (operators reading the log see the
			// transition); replay treats started-unfinished like queued —
			// the work was lost with the process and must rerun.
		case recJobFinish:
			var wf walFinish
			if err := json.Unmarshal(rec.Payload, &wf); err != nil {
				oops("finish record seq %d: %v", rec.Seq, err)
				continue
			}
			wj, ok := jobs[wf.ID]
			if !ok {
				// Finish can land before its submit record under concurrent
				// submission; the spec embedded in it suffices.
				wj = &walJob{submit: walSubmit{ID: wf.ID, Spec: wf.Spec, Submitted: wf.Submitted}}
				jobs[wf.ID] = wj
				order = append(order, wf.ID)
			}
			wj.finish = &wf
			wj.ref = rec.Ref()
		}
	}

	s.mu.Lock()
	// The snapshot's sequence floor guards against id reuse: compaction
	// drops evicted jobs' records, so without it a restarted server could
	// count only the surviving ids and reissue one a client still holds.
	if snapSeq > s.seq {
		s.seq = snapSeq
	}
	for _, id := range order {
		wj := jobs[id]
		if n := jobNumber(id); n > s.seq {
			s.seq = n
		}
		if wj.finish != nil {
			job := wj.finish.job()
			s.jobs[id] = &job
			if wj.ref.Seg > 0 {
				s.finishIdx[id] = wj.ref
			}
			s.order = append(s.order, id)
			stats.JobsReplayed++
			continue
		}
		job := &Job{
			ID: id, Spec: wj.submit.Spec, Status: StatusQueued,
			Submitted: wj.submit.Submitted, Replayed: true,
		}
		s.jobs[id] = job
		s.order = append(s.order, id)
		s.enqueueLocked(job)
		stats.JobsResumed++
	}
	s.pruneLocked()
	s.dispatchLocked()
	s.mu.Unlock()
	if s.cfg.WarmOnRegister {
		// Behind the resumed jobs, and as best-effort as a registration's
		// warmup: a drain drops or preempts it.
		for _, d := range s.reg.All() {
			s.warmDataset(d.name)
		}
	}
	stats.Datasets = s.reg.Count()
	s.counters.journalReplayed.Add(int64(stats.Records))
	return stats
}

// jobNumber parses the numeric suffix of a job-%06d id (0 when foreign).
func jobNumber(id string) int {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return n
}

// jobFromJournal looks a job up in the journal — the fetch path for
// results whose in-memory entry was evicted by the TTL GC. The finish
// index maps the id straight to its terminal record's durable address
// (or to the snapshot carrying it), so one fetch costs one record read,
// never a replay of the log — O(record), not O(history), no matter how
// long the server has been up or how often clients poll.
//
// A concurrent Compact can GC the referenced segment between the index
// read and the record read; the index is refreshed before the GC, so one
// retry with a fresh ref resolves the race.
func (s *Server) jobFromJournal(id string) (Job, bool) {
	for attempt := 0; attempt < 2; attempt++ {
		s.mu.Lock()
		ref, ok := s.finishIdx[id]
		dir := s.jnlDir
		s.mu.Unlock()
		if !ok || dir == "" {
			return Job{}, false
		}
		rec, err := journal.ReadRecordAt(dir, ref)
		if err != nil {
			continue
		}
		s.counters.journalReads.Add(1)
		var found *walFinish
		switch rec.Kind {
		case recJobFinish:
			var wf walFinish
			if json.Unmarshal(rec.Payload, &wf) == nil && wf.ID == id {
				found = &wf
			}
		case recSnapshot:
			var snap walSnapshot
			if json.Unmarshal(rec.Payload, &snap) == nil {
				for i := range snap.Jobs {
					if snap.Jobs[i].ID == id {
						found = &snap.Jobs[i]
						break
					}
				}
			}
		}
		if found == nil {
			return Job{}, false
		}
		return found.job(), true
	}
	return Job{}, false
}

// job is the replayed job a finish record describes.
func (wf *walFinish) job() Job {
	fin := wf.Finished
	return Job{
		ID: wf.ID, Spec: wf.Spec, Status: wf.Status,
		Error: wf.Error, ErrorCode: wf.ErrorCode, Result: wf.Result,
		Submitted: wf.Submitted, Started: wf.Started, Finished: &fin,
		Replayed: true,
	}
}

// jobToWalFinish converts a terminal job snapshot to its journal form.
func jobToWalFinish(j *Job) walFinish {
	return walFinish{
		ID: j.ID, Spec: j.Spec, Status: j.Status,
		Error: j.Error, ErrorCode: j.ErrorCode, Result: j.Result,
		Submitted: j.Submitted, Started: j.Started, Finished: *j.Finished,
	}
}

// buildSnapshot captures the server's complete journalable state: every
// dataset's current contents (remote kinds excluded — their site
// connections are re-established out of band, not replayed), finished
// jobs still in memory, queued and running jobs (replay requeues running
// ones — their work dies with the process either way), and the job-id
// sequence floor. Called with s.snapMu held exclusively, so no
// journal+apply pair is in flight while the state is read.
func (s *Server) buildSnapshot() walSnapshot {
	var snap walSnapshot
	for _, d := range s.reg.All() {
		if wd, ok := d.record(); ok {
			snap.Datasets = append(snap.Datasets, wd)
		}
	}
	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.Finished != nil {
			snap.Jobs = append(snap.Jobs, jobToWalFinish(j))
			continue
		}
		snap.Queued = append(snap.Queued, walSubmit{ID: j.ID, Spec: j.Spec, Submitted: j.Submitted})
	}
	snap.Seq = s.seq
	s.mu.Unlock()
	return snap
}
