package serve

import (
	"errors"
	"fmt"
	"time"
)

// Admission control: real backpressure beyond the blanket 503. Three
// mechanisms keep one hot client from starving a million quiet ones:
//
//   - per-client token quotas: each client (JobSpec.Client, or the
//     X-DPC-Client header) draws submission tokens from its own bucket —
//     burst capacity QuotaBurst, refilled at QuotaPerSec — and an empty
//     bucket rejects with HTTP 429 / code "quota_exceeded" instead of
//     letting the flood consume the shared queue;
//   - queue-time deadlines: a job that waits longer than its (or the
//     server's) queue deadline expires with the stable code
//     "queue_deadline_exceeded" instead of running long after its caller
//     stopped caring — expiry happens both when a worker would pick it up
//     and on the GC sweep, so waiters see it promptly;
//   - priority classes: the scheduler dequeues high before normal before
//     low (FIFO within a class), so latency-sensitive work overtakes bulk
//     backfill even when the queue is deep.

// ErrNotReady is returned by mutating calls while the server is still
// recovering (journal replay, cache staging) or draining. The HTTP layer
// maps it to 503 with the stable code "not_ready"; a caller retries once
// /readyz reports ready.
var ErrNotReady = errors.New("serve: server not ready")

// ErrQuotaExceeded is returned by Submit when the client's token bucket
// is empty. HTTP 429 with the stable code "quota_exceeded"; unlike
// queue_full this is a per-client verdict, so client.Remote does not
// retry it.
var ErrQuotaExceeded = errors.New("serve: client submission quota exceeded")

// Priority classes of JobSpec.Priority. The zero value is PriorityNormal.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// priorityRank maps the class to its dequeue rank (higher first), or an
// error for unknown classes.
func priorityRank(p string) (int, error) {
	switch p {
	case PriorityHigh:
		return 2, nil
	case "", PriorityNormal:
		return 1, nil
	case PriorityLow:
		return 0, nil
	}
	return 0, fmt.Errorf("serve: unknown priority %q (want high, normal or low)", p)
}

// quotaBucket is one client's token bucket.
type quotaBucket struct {
	tokens float64
	last   time.Time
}

// quotas is the per-client token-bucket table. Zero burst disables the
// whole mechanism (take always admits).
type quotas struct {
	burst float64
	rate  float64 // tokens per second
	// buckets is guarded by the server's job mutex (quota decisions are
	// taken inside Submit's critical section anyway).
	buckets map[string]*quotaBucket
}

// maxQuotaClients bounds the bucket table; past it, idle clients (full
// buckets) are pruned before a new one is added. A client set larger than
// this with zero idle members would mean the quota knob is misconfigured
// for the deployment, so the newest client is admitted unmetered rather
// than growing without bound.
const maxQuotaClients = 4096

func newQuotas(burst int, perSec float64) *quotas {
	if burst <= 0 {
		return &quotas{}
	}
	if perSec <= 0 {
		perSec = float64(burst) // default: refill the burst every second
	}
	return &quotas{burst: float64(burst), rate: perSec, buckets: make(map[string]*quotaBucket)}
}

// take consumes one token from client's bucket, reporting whether the
// submission is admitted. Buckets refill continuously at rate up to
// burst.
func (q *quotas) take(client string, now time.Time) bool {
	if q.burst <= 0 {
		return true
	}
	if client == "" {
		client = "anonymous"
	}
	b, ok := q.buckets[client]
	if !ok {
		if len(q.buckets) >= maxQuotaClients {
			for k, old := range q.buckets {
				if old.tokens >= q.burst {
					delete(q.buckets, k)
				}
			}
			if len(q.buckets) >= maxQuotaClients {
				return true // table saturated with active clients; admit unmetered
			}
		}
		b = &quotaBucket{tokens: q.burst, last: now}
		q.buckets[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// queueDeadline returns the moment a queued job expires: the tighter of
// the job's own queue timeout and the server-wide default. Zero means no
// deadline.
func queueDeadline(spec JobSpec, submitted time.Time, serverDefault time.Duration) time.Time {
	var dl time.Time
	if serverDefault > 0 {
		dl = submitted.Add(serverDefault)
	}
	if spec.QueueTimeoutMS > 0 {
		own := submitted.Add(time.Duration(spec.QueueTimeoutMS) * time.Millisecond)
		if dl.IsZero() || own.Before(dl) {
			dl = own
		}
	}
	return dl
}
