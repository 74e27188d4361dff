package client

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"dpc/internal/serve"
)

// BalancedOptions tunes the Balanced backend. The embedded RemoteOptions
// apply to every per-replica connection.
type BalancedOptions struct {
	RemoteOptions
	// Replication is how many replicas hold each dataset (default 2,
	// clamped to the replica count). Registrations fan out to the
	// dataset's holder set; jobs prefer holders and fail over to the
	// rest, re-registering from the client's retained copy on a replica
	// that has never seen the dataset.
	Replication int
}

// Balanced answers requests against a fleet of dpc-server replicas. Each
// dataset hashes (FNV-1a over its name) to a primary replica and
// replicates to the next Replication-1 in ring order; registrations fan
// out to that holder set, and the registration payload is retained
// client-side so any replica can be brought up to date on demand. Job
// submissions try the primary first and walk the ring on connection
// errors and 503s (queue_full after the per-replica retry budget,
// not_ready, shutting_down); jobs whose replica dies mid-flight — the
// poll loop hits a connection error, a job_not_found from a restarted
// process, or a shutting_down drain — are resubmitted to a survivor.
// Quota rejections (429 quota_exceeded) and validation errors are the
// caller's problem and are never retried.
//
// Balanced makes no attempt at distributed consensus: replicas are
// independent dpc-servers (each with its own journal), the client is the
// only coordinator, and determinism does the rest — the same JobSpec
// yields byte-identical centers on every replica, so it does not matter
// which one answers.
type Balanced struct {
	replicas []*Remote
	urls     []string
	repl     int
	opt      BalancedOptions

	mu   sync.Mutex
	regs map[string]*retainedReg
	st   BalancedStats
}

// BalancedStats counts the failover traffic of a Balanced client's life.
type BalancedStats struct {
	// Retries counts submission attempts beyond the first, summed over
	// jobs (each ring step on a down or saturated replica is one retry).
	Retries int64 `json:"retries"`
	// Resubmissions counts jobs that were lost in flight — their replica
	// died or drained after accepting them — and were resubmitted to a
	// survivor.
	Resubmissions int64 `json:"resubmissions"`
	// Reregistrations counts datasets re-registered onto a replica
	// outside their original holder set during failover.
	Reregistrations int64 `json:"reregistrations"`
	// PerReplica counts completed jobs by serving replica base URL.
	PerReplica map[string]int64 `json:"per_replica"`
}

// retainedReg is the client-side copy of one dataset registration: enough
// to replay it (registration plus appends, in order) onto any replica.
type retainedReg struct {
	kind    serve.DatasetKind
	points  []Point
	ground  *Ground
	nodes   []Node
	appends [][]Point
	// present marks the replica indexes known to hold the dataset.
	present map[int]bool
}

// NewBalanced creates a Balanced backend over the replica base URLs.
func NewBalanced(urls []string, opt BalancedOptions) (*Balanced, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("client: balanced backend needs at least one replica URL")
	}
	if opt.Replication == 0 {
		opt.Replication = 2
	}
	if opt.Replication < 1 {
		opt.Replication = 1
	}
	if opt.Replication > len(urls) {
		opt.Replication = len(urls)
	}
	// Share one http.Client across replicas unless the caller provided one.
	if opt.HTTPClient == nil {
		opt.HTTPClient = &http.Client{}
	}
	b := &Balanced{
		urls: append([]string(nil), urls...),
		repl: opt.Replication,
		opt:  opt,
		regs: make(map[string]*retainedReg),
		st:   BalancedStats{PerReplica: make(map[string]int64)},
	}
	b.replicas = make([]*Remote, len(urls))
	for i, u := range urls {
		b.replicas[i] = NewRemote(u, opt.RemoteOptions)
	}
	return b, nil
}

// Close implements Client.
func (b *Balanced) Close() error {
	for _, r := range b.replicas {
		r.Close()
	}
	return nil
}

// Stats returns a snapshot of the failover counters.
func (b *Balanced) Stats() BalancedStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.st
	out.PerReplica = make(map[string]int64, len(b.st.PerReplica))
	for k, v := range b.st.PerReplica {
		out.PerReplica[k] = v
	}
	return out
}

// URLs returns the replica base URLs in ring order.
func (b *Balanced) URLs() []string { return append([]string(nil), b.urls...) }

// primary returns the ring index the dataset name hashes to.
func (b *Balanced) primary(dataset string) int {
	h := fnv.New32a()
	h.Write([]byte(dataset))
	return int(h.Sum32() % uint32(len(b.replicas)))
}

// order returns every replica index, holders of the dataset first
// (primary leading), then the rest of the ring — the submission walk.
func (b *Balanced) order(dataset string) []int {
	n := len(b.replicas)
	p := b.primary(dataset)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, (p+i)%n)
	}
	return out
}

// holders returns the Replication-sized holder set of a dataset.
func (b *Balanced) holders(dataset string) []int {
	return b.order(dataset)[:b.repl]
}

// RegisterDataset registers a named table dataset on the dataset's holder
// replicas and retains the payload for failover re-registration. It
// succeeds if at least one holder accepted; unreachable holders are
// brought up to date lazily when a job lands on them.
func (b *Balanced) RegisterDataset(ctx context.Context, name string, pts []Point) error {
	reg := &retainedReg{kind: serve.KindTable, points: append([]Point(nil), pts...), present: make(map[int]bool)}
	return b.registerOnHolders(ctx, name, reg)
}

// RegisterUncertainDataset registers a named uncertain dataset on the
// holder replicas, retaining the instance for failover.
func (b *Balanced) RegisterUncertainDataset(ctx context.Context, name string, g *Ground, nodes []Node) error {
	reg := &retainedReg{kind: serve.KindUncertain, ground: g, nodes: append([]Node(nil), nodes...), present: make(map[int]bool)}
	return b.registerOnHolders(ctx, name, reg)
}

// registerOnHolders fans a retained registration out to the holder set.
func (b *Balanced) registerOnHolders(ctx context.Context, name string, reg *retainedReg) error {
	var firstErr error
	ok := 0
	for _, idx := range b.holders(name) {
		if err := b.registerOn(ctx, idx, name, reg); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok++
	}
	if ok == 0 {
		return firstErr
	}
	b.mu.Lock()
	b.regs[name] = reg
	b.mu.Unlock()
	return nil
}

// registerOn replays one retained registration (and its appends) onto one
// replica and marks it present there.
func (b *Balanced) registerOn(ctx context.Context, idx int, name string, reg *retainedReg) error {
	r := b.replicas[idx]
	var err error
	switch reg.kind {
	case serve.KindUncertain:
		err = r.RegisterUncertainDataset(ctx, name, reg.ground, reg.nodes)
	default:
		err = r.RegisterDataset(ctx, name, reg.points)
	}
	// A replica that already holds the dataset (journal replay after a
	// restart) answers 409; that is presence, not failure.
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
		err = nil
	}
	if err != nil {
		return err
	}
	for _, pts := range reg.appends {
		if _, err := r.AppendPoints(ctx, name, pts); err != nil {
			return err
		}
	}
	b.mu.Lock()
	reg.present[idx] = true
	b.mu.Unlock()
	return nil
}

// AppendPoints appends points to the dataset on every holder replica and
// extends the retained copy.
func (b *Balanced) AppendPoints(ctx context.Context, name string, pts []Point) (serve.DatasetInfo, error) {
	b.mu.Lock()
	reg := b.regs[name]
	b.mu.Unlock()
	if reg == nil {
		return serve.DatasetInfo{}, fmt.Errorf("client: balanced append to unknown dataset %q", name)
	}
	cp := append([]Point(nil), pts...)
	var info serve.DatasetInfo
	var firstErr error
	ok := 0
	for _, idx := range b.holders(name) {
		i, err := b.replicas[idx].AppendPoints(ctx, name, cp)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			b.mu.Lock()
			delete(reg.present, idx) // stale until re-registered
			b.mu.Unlock()
			continue
		}
		info = i
		ok++
	}
	if ok == 0 {
		return serve.DatasetInfo{}, firstErr
	}
	b.mu.Lock()
	reg.appends = append(reg.appends, cp)
	b.mu.Unlock()
	return info, nil
}

// DeleteDataset removes the dataset from every replica that might hold it
// and drops the retained copy.
func (b *Balanced) DeleteDataset(ctx context.Context, name string) error {
	b.mu.Lock()
	reg := b.regs[name]
	delete(b.regs, name)
	b.mu.Unlock()
	var firstErr error
	for idx := range b.replicas {
		if reg != nil && !reg.present[idx] && !contains(b.holders(name), idx) {
			continue
		}
		if err := b.replicas[idx].DeleteDataset(ctx, name); err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Do implements Client: submit to the dataset's primary replica, walk the
// ring on failure, resubmit in-flight jobs lost to a dying replica.
// Ephemeral datasets go through the balanced registration path (holder
// fan-out plus retention), so ephemeral jobs fail over like named ones.
func (b *Balanced) Do(ctx context.Context, req Request) (*Response, error) {
	return serverDo(ctx, req, "balanced", b, func(ctx context.Context, spec serve.JobSpec) (serve.Job, string, error) {
		done, idx, err := b.solve(ctx, spec)
		if err != nil {
			return serve.Job{}, "", err
		}
		return done, b.urls[idx], nil
	})
}

// solve runs one spec to completion somewhere in the fleet, returning the
// finished job and the index of the replica that served it.
func (b *Balanced) solve(ctx context.Context, spec serve.JobSpec) (serve.Job, int, error) {
	order := b.order(spec.Dataset)
	// Two passes over the ring: the second catches replicas that were
	// restarting (not_ready) during the first.
	maxAttempts := 2 * len(order)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		idx := order[attempt%len(order)]
		if attempt > 0 {
			b.mu.Lock()
			b.st.Retries++
			b.mu.Unlock()
			if attempt >= len(order) {
				if err := sleep(ctx, b.opt.RetryBackoff); err != nil {
					return serve.Job{}, 0, err
				}
			}
		}
		done, accepted, err := b.tryReplica(ctx, idx, spec)
		if err == nil {
			b.mu.Lock()
			b.st.PerReplica[b.urls[idx]]++
			b.mu.Unlock()
			return done, idx, nil
		}
		if ctx.Err() != nil {
			return serve.Job{}, 0, ctx.Err()
		}
		if !retryableFailover(err) {
			return serve.Job{}, 0, err
		}
		if accepted {
			// The replica took the job and then lost it — the next attempt
			// is a resubmission of accepted work, not a mere retry.
			b.mu.Lock()
			b.st.Resubmissions++
			b.mu.Unlock()
		}
		lastErr = err
	}
	return serve.Job{}, 0, fmt.Errorf("client: all %d replicas failed: %w", len(order), lastErr)
}

// tryReplica submits the spec to one replica and waits it out, reporting
// whether the replica had accepted the job before any failure. A
// dataset_not_found answer re-registers the retained dataset there (the
// failover path onto a non-holder) and retries once.
func (b *Balanced) tryReplica(ctx context.Context, idx int, spec serve.JobSpec) (done serve.Job, accepted bool, err error) {
	r := b.replicas[idx]
	for pass := 0; ; pass++ {
		job, err := r.Submit(ctx, spec)
		if err != nil {
			var apiErr *APIError
			if pass == 0 && errors.As(err, &apiErr) && apiErr.Code == serve.CodeDatasetNotFound {
				if rerr := b.reregister(ctx, idx, spec.Dataset); rerr == nil {
					continue
				}
			}
			return serve.Job{}, false, err
		}
		done, err := r.Wait(ctx, job.ID)
		return done, true, err
	}
}

// reregister replays the retained registration of a dataset onto a
// replica outside its holder set.
func (b *Balanced) reregister(ctx context.Context, idx int, name string) error {
	b.mu.Lock()
	reg := b.regs[name]
	b.mu.Unlock()
	if reg == nil {
		return fmt.Errorf("client: dataset %q has no retained registration", name)
	}
	if err := b.registerOn(ctx, idx, name, reg); err != nil {
		return err
	}
	b.mu.Lock()
	b.st.Reregistrations++
	b.mu.Unlock()
	return nil
}

// retryableFailover decides whether an error means "try the next
// replica":
//
//   - Connection errors (the process died mid-dial or mid-poll): yes.
//   - 503 queue_full (after Remote's own backoff budget), not_ready,
//     shutting_down: the replica cannot take or keep the job — yes.
//   - job_not_found while polling: the replica restarted without the job
//     (no journal, or the submit never made it to disk) — yes.
//   - JobFailedError shutting_down: the replica drained the queued job
//     on exit — yes.
//   - 429 quota_exceeded, validation errors, real job failures,
//     cancelled contexts: the answer, not an outage — never retried.
func retryableFailover(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case serve.CodeQueueFull, serve.CodeNotReady, serve.CodeShuttingDown, serve.CodeJobNotFound:
			return true
		}
		return false
	}
	var jfe *JobFailedError
	if errors.As(err, &jfe) {
		return jfe.Code == serve.CodeShuttingDown
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Anything else is a transport-level failure: connection refused,
	// reset mid-poll, EOF from a killed process.
	return true
}
