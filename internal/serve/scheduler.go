package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// The scheduler is one queue: a priority heap of jobs (high before normal
// before low, FIFO within a class) with a FIFO of warmups behind it.
// dispatchLocked hands queued work to free slots — tokens in s.slots, so at
// most MaxConcurrentJobs tasks run — whenever work is queued and whenever a
// task finishes.

// ErrQueueFull is returned by Submit when QueueDepth jobs are already
// waiting: HTTP 503 with the stable code "queue_full".
var ErrQueueFull = errors.New("serve: job queue full")

// ErrShuttingDown is returned by Submit once a drain has begun. HTTP 503
// with the stable code "shutting_down".
var ErrShuttingDown = errors.New("serve: server shutting down")

// queueEntry is one queued job in the priority heap.
type queueEntry struct {
	id   string
	rank int // priority class rank, higher dequeues first
	seq  int // submission order, lower first within a class
}

// jobQueue is the scheduler's dispatch order: a priority heap holding
// exactly the jobs that are queued. Cancellation, expiry and the drain
// remove their entries.
type jobQueue []queueEntry

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].rank != q[j].rank {
		return q[i].rank > q[j].rank
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)        { *q = append(*q, x.(queueEntry)) }
func (q *jobQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q *jobQueue) push(e queueEntry) { heap.Push(q, e) }

// pop removes and returns the highest-priority entry, or false when
// empty.
func (q *jobQueue) pop() (queueEntry, bool) {
	if q.Len() == 0 {
		return queueEntry{}, false
	}
	return heap.Pop(q).(queueEntry), true
}

// remove deletes the entry for id, if present.
func (q *jobQueue) remove(id string) {
	for i, e := range *q {
		if e.id == id {
			heap.Remove(q, i)
			return
		}
	}
}

// enqueueLocked pushes a queued job onto the heap; the caller dispatches.
// Called with s.mu held.
func (s *Server) enqueueLocked(job *Job) {
	rank, _ := priorityRank(job.Spec.Priority) // validated at submit
	s.qseq++
	s.queue.push(queueEntry{id: job.ID, rank: rank, seq: s.qseq})
}

// dispatchLocked starts queued work on free slots: the heap's jobs first,
// then the warmups behind them. Nothing starts once a drain has begun.
// Called with s.mu held.
func (s *Server) dispatchLocked() {
	for !s.draining && (len(s.queue) > 0 || len(s.warmq) > 0) {
		select {
		case s.slots <- struct{}{}:
		default:
			return // every slot is busy; the next task to finish dispatches
		}
		var task func()
		if e, ok := s.queue.pop(); ok {
			job := s.jobs[e.id]
			task = func() { s.execute(job) }
		} else {
			name := s.warmq[0]
			s.warmq = s.warmq[1:]
			task = func() {
				s.warm.started.Add(1)
				defer s.warm.done.Add(1)
				s.reg.WarmTable(s.warmCtx, name, 0, &s.warm.cellsDone, &s.warm.cellsTotal)
			}
		}
		s.tasks.Add(1)
		go func() {
			defer s.tasks.Done()
			task()
			s.mu.Lock()
			<-s.slots
			s.dispatchLocked()
			s.mu.Unlock()
		}()
	}
}

// endLocked moves job to a terminal status: status, error message, stable
// code and finish time, and one count on counter. Called with s.mu held,
// or on a private copy not yet published (execute's journal-first finish).
func (s *Server) endLocked(job *Job, status, code string, err error, counter *atomic.Int64) {
	job.Status, job.ErrorCode = status, code
	if err != nil {
		job.Error = err.Error()
	}
	fin := time.Now()
	job.Finished = &fin
	counter.Add(1)
}

// expireLocked fails a queued job whose queue deadline has passed and
// drops its heap entry. Returns whether it expired. Called with s.mu held.
func (s *Server) expireLocked(job *Job, now time.Time) bool {
	if job.Status != StatusQueued || job.deadline.IsZero() || now.Before(job.deadline) {
		return false
	}
	s.queue.remove(job.ID)
	s.endLocked(job, StatusFailed, CodeQueueDeadline,
		fmt.Errorf("serve: job %s expired after %v in queue", job.ID, now.Sub(job.Submitted).Round(time.Millisecond)),
		&s.counters.jobsFailed)
	s.counters.jobsExpired.Add(1)
	return true
}

// execute runs one dispatched job and records the outcome. A panic
// anywhere in the solve fails that one job; a server absorbing arbitrary
// client-submitted work must never let one query kill the process. Each
// job runs under its own cancellable context so CancelJob and Shutdown can
// abort it between protocol rounds.
func (s *Server) execute(job *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s.mu.Lock()
	now := time.Now()
	if job.Status != StatusQueued {
		// Canceled or drained between dispatch and here; nothing to run.
		s.mu.Unlock()
		return
	}
	if s.expireLocked(job, now) {
		view := *job
		s.mu.Unlock()
		s.journalFinish(&view)
		return
	}
	job.Status = StatusRunning
	job.Started = &now
	job.cancel = cancel
	final := *job
	s.mu.Unlock()
	s.journalAppend(recJobStart, walStart{ID: job.ID, Started: now})

	res, err := func() (res *JobResult, err error) {
		defer func() {
			if p := recover(); p != nil {
				res, err = nil, fmt.Errorf("serve: job panicked: %v", p)
			}
		}()
		return s.reg.run(ctx, job.Spec)
	}()

	// Journal the terminal view, then publish it: a client that sees the
	// job finish can count on a restart not running it again. The snapshot
	// barrier spans both steps, so no checkpoint records the job as running
	// after its finish record and supersedes it.
	final.cancel = nil
	switch {
	case err != nil && ctx.Err() != nil:
		s.endLocked(&final, StatusCanceled, "", fmt.Errorf("serve: job canceled: %v", err), &s.counters.jobsCanceled)
	case err != nil:
		s.endLocked(&final, StatusFailed, "", err, &s.counters.jobsFailed)
	default:
		final.Result = res
		s.endLocked(&final, StatusDone, "", nil, &s.counters.jobsDone)
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.journalFinish(&final)
	s.mu.Lock()
	*job = final
	s.mu.Unlock()
}

// journalFinish records a job's terminal state (no-op without a journal).
// The spec rides along so the finish record alone reconstructs the job
// after its in-memory entry is evicted; the record's durable address goes
// into the finish index so that lookup costs one record read.
func (s *Server) journalFinish(j *Job) {
	if j.Finished == nil {
		return
	}
	ref, err := s.journalAppend(recJobFinish, jobToWalFinish(j))
	if err == nil && ref.Seg > 0 {
		s.mu.Lock()
		s.finishIdx[j.ID] = ref
		s.mu.Unlock()
	}
}

// CancelJob cancels one job: a queued job fails immediately without
// running, a running job's context is cancelled so its solve aborts at the
// next protocol round. Finished jobs are left untouched (no error — cancel
// is idempotent against races with completion).
func (s *Server) CancelJob(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("serve: no job %q", id)
	}
	queued := j.Status == StatusQueued
	if queued {
		s.queue.remove(id)
		s.endLocked(j, StatusCanceled, "", errors.New("serve: canceled before the job started"), &s.counters.jobsCanceled)
	} else if j.Status == StatusRunning && j.cancel != nil {
		j.cancel()
	}
	view := *j
	s.mu.Unlock()
	if queued {
		// Terminal without passing through execute: journal it here so a
		// replay does not resurrect a job the client canceled.
		s.journalFinish(&view)
	}
	return view, nil
}

// gcLoop is the store's maintenance sweep: it evicts finished jobs past
// their TTL (journaled results remain fetchable via jobFromJournal) and
// expires queued jobs past their deadline, so waiters see the terminal
// state promptly instead of at dequeue time. It exits with warmCtx on
// Shutdown.
func (s *Server) gcLoop() {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.warmCtx.Done():
			return
		case now := <-tick.C:
			s.sweep(now)
		}
	}
}

// sweep runs one GC pass at time now.
func (s *Server) sweep(now time.Time) {
	var expired []*Job
	s.mu.Lock()
	if s.cfg.JobTTL > 0 {
		keep := s.order[:0]
		for _, id := range s.order {
			j := s.jobs[id]
			if j.Finished != nil && now.Sub(*j.Finished) > s.cfg.JobTTL {
				delete(s.jobs, id)
				s.counters.jobsEvicted.Add(1)
				continue
			}
			keep = append(keep, id)
		}
		s.order = keep
	}
	for _, id := range s.order {
		if j := s.jobs[id]; s.expireLocked(j, now) {
			view := *j
			expired = append(expired, &view)
		}
	}
	s.mu.Unlock()
	for _, j := range expired {
		s.journalFinish(j)
	}
}
