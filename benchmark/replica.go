package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dpc/internal/comm"
	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// The traced run drives a point job through the same public entry points
// client.Local, client.Cluster and internal/serve use —
// core.NewSiteHandlerOracle, tree.NewLocal / transport, core.RunOverCtx —
// with benchmark-side stopwatches around every site handler and every
// transport call. Nothing inside the program is instrumented.

// interval is a wall-clock span observed by a stopwatch.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// roundClock is what the stopwatches saw of one protocol round.
type roundClock struct {
	down   time.Time        // first downstream Broadcast/Send of the round (zero if none)
	gather interval         // the transport's Gather call
	sites  map[int]interval // handler invocations by site
}

// jobClock collects one job's stopwatch readings. The handler side is
// written from site goroutines (or site server goroutines over TCP), the
// transport side from the coordinator's goroutine.
type jobClock struct {
	mu     sync.Mutex
	rounds []roundClock
	// up[r][i] is site i's round-r reply, captured for the codec probes.
	up map[int]map[int][]byte
}

func newJobClock() *jobClock { return &jobClock{up: make(map[int]map[int][]byte)} }

// round returns round r's clock, growing the slice; call with mu held.
func (c *jobClock) round(r int) *roundClock {
	for len(c.rounds) <= r {
		c.rounds = append(c.rounds, roundClock{sites: make(map[int]interval)})
	}
	return &c.rounds[r]
}

// watch wraps a site handler with a stopwatch.
func (c *jobClock) watch(site int, h transport.Handler) transport.Handler {
	return func(round int, in []byte) ([]byte, error) {
		t0 := time.Now()
		out, err := h(round, in)
		t1 := time.Now()
		c.mu.Lock()
		c.round(round).sites[site] = interval{t0, t1}
		if c.up[round] == nil {
			c.up[round] = make(map[int][]byte)
		}
		c.up[round][site] = out
		c.mu.Unlock()
		return out, err
	}
}

// inSiteOrder returns a per-site map's values ordered by site id.
func inSiteOrder[T any](m map[int]T) []T {
	ids := make([]int, 0, len(m))
	for i := range m {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	out := make([]T, len(ids))
	for n, i := range ids {
		out[n] = m[i]
	}
	return out
}

// siteDurations returns round r's handler durations in site order.
func (c *jobClock) siteDurations(r int) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r >= len(c.rounds) {
		return nil
	}
	ivs := inSiteOrder(c.rounds[r].sites)
	out := make([]time.Duration, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.dur()
	}
	return out
}

// payloads returns round r's captured site replies in site order.
func (c *jobClock) payloads(r int) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return inSiteOrder(c.up[r])
}

// watchedTransport times the coordinator's calls into a transport. The
// current job's clock is swapped in per job so one wrapper can sit on a
// persistent fleet.
type watchedTransport struct {
	inner transport.Transport
	clock *jobClock
}

func (w *watchedTransport) Sites() int { return w.inner.Sites() }

func (w *watchedTransport) markDown(round int) {
	now := time.Now()
	w.clock.mu.Lock()
	if rc := w.clock.round(round); rc.down.IsZero() {
		rc.down = now
	}
	w.clock.mu.Unlock()
}

func (w *watchedTransport) Broadcast(round int, b []byte) error {
	w.markDown(round)
	return w.inner.Broadcast(round, b)
}

func (w *watchedTransport) Send(round, site int, b []byte) error {
	w.markDown(round)
	return w.inner.Send(round, site, b)
}

func (w *watchedTransport) Gather(ctx context.Context, round int) (transport.RoundResult, error) {
	t0 := time.Now()
	res, err := w.inner.Gather(ctx, round)
	t1 := time.Now()
	w.clock.mu.Lock()
	w.clock.round(round).gather = interval{t0, t1}
	w.clock.mu.Unlock()
	return res, err
}

func (w *watchedTransport) Close() error { return w.inner.Close() }

// TreeStats forwards the aggregation tree's per-level attribution, so
// comm.Report.Tree is filled exactly as without the wrapper.
func (w *watchedTransport) TreeStats() (comm.TreeStats, bool) {
	if ts, ok := w.inner.(comm.TreeStatser); ok {
		return ts.TreeStats()
	}
	return comm.TreeStats{}, false
}

// emitProtocolSpans turns a finished job's stopwatch readings into spans
// under parent: transport.gather.r{r} with one core.site{i}.r{r} child per
// handler call, transport.send.r{r} for a downstream write, and core.coord
// for the coordinator's stretches between a gather's return and its next
// transport call (or the run's end). decode, when positive, is the time a
// replay of the round's payload decoding took; it is placed as a comm.decode
// child at the head of the last core.coord (the coordinator decodes first).
func (c *jobClock) emitProtocolSpans(tr *tracer, job, parent int, runEnd time.Time, decode time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r, rc := range c.rounds {
		if !rc.down.IsZero() {
			tr.add(fmt.Sprintf("transport.send.r%d", r), job, parent, rc.down, rc.gather.start)
		}
		g := tr.add(fmt.Sprintf("transport.gather.r%d", r), job, parent, rc.gather.start, rc.gather.end)
		for i, iv := range rc.sites {
			tr.add(fmt.Sprintf("core.site%d.r%d", i, r), job, g, iv.start, iv.end)
		}
		coordEnd := runEnd
		if r+1 < len(c.rounds) {
			next := c.rounds[r+1]
			coordEnd = next.gather.start
			if !next.down.IsZero() {
				coordEnd = next.down
			}
		}
		co := tr.add("core.coord", job, parent, rc.gather.end, coordEnd)
		if r == len(c.rounds)-1 && decode > 0 {
			if max := coordEnd.Sub(rc.gather.end); decode > max {
				decode = max
			}
			tr.add("comm.decode", job, co, rc.gather.end, rc.gather.end.Add(decode))
		}
	}
}

// pointJob is one point-protocol job at the level below the clients: the
// full dataset, how it is sharded and the core configuration. oracleFor,
// when set, supplies shard i's externally owned distance oracle (as
// internal/serve shares one across jobs); it may return nil for "let the
// site build its own".
type pointJob struct {
	pts       []metric.Point
	sites     int
	cfg       core.Config
	oracleFor func(i int, shard []metric.Point) metric.Oracle
}

// wire selects how a replica job's sites are connected.
type wire struct {
	kind     transport.Kind
	parallel bool
	topo     tree.Spec
}

// replicaResult is one low-level job's outcome and timing.
type replicaResult struct {
	res     core.Result
	total   time.Duration // the whole op, sharding to evaluation
	connect time.Duration // tree.NewLocal: listen/dial/handshake for TCP
	shard   time.Duration
	eval    time.Duration
	clock   *jobClock // nil when the job ran without stopwatches
	// Distance-cache traffic of the job's site oracles (zero when the sites
	// run uncached).
	hits, misses int64
}

// runReplica executes job the way client.Local.Do does — round-robin
// sharding, one site handler per shard, tree.NewLocal, core.RunOverCtx,
// core.Evaluate — over the given wire. With tr set, handlers and transport
// are wrapped by stopwatches and the op's spans are recorded under jobID;
// with tr nil the identical calls run bare (the reference for the tracing
// overhead).
func runReplica(ctx context.Context, job pointJob, w wire, tr *tracer, jobID int) (replicaResult, error) {
	var out replicaResult
	var clock *jobClock
	if tr != nil {
		clock = newJobClock()
		out.clock = clock
	}
	t0 := time.Now()
	shards := dataio.SplitRoundRobin(job.pts, job.sites)
	tShard := time.Now()
	handlers := make([]transport.Handler, len(shards))
	for i := range shards {
		var o metric.Oracle
		if job.oracleFor != nil {
			o = job.oracleFor(i, shards[i])
		}
		h, err := core.NewSiteHandlerOracle(job.cfg, i, shards[i], o)
		if err != nil {
			return out, err
		}
		if clock != nil {
			h = clock.watch(i, h)
		}
		handlers[i] = h
	}
	tHandlers := time.Now()
	inner, err := tree.NewLocal(ctx, w.kind, handlers, w.parallel, w.topo)
	if err != nil {
		return out, err
	}
	defer inner.Close()
	tConnect := time.Now()
	var over transport.Transport = inner
	if clock != nil {
		over = &watchedTransport{inner: inner, clock: clock}
	}
	res, err := core.RunOverCtx(ctx, over, job.cfg)
	if err != nil {
		return out, err
	}
	tRun := time.Now()
	sink += core.Evaluate(job.pts, res.Centers, res.OutlierBudget, job.cfg.Objective)
	tEnd := time.Now()

	out.res = res
	out.total = tEnd.Sub(t0)
	out.shard = tShard.Sub(t0)
	out.connect = tConnect.Sub(tHandlers)
	out.eval = tEnd.Sub(tRun)
	if tr != nil {
		root := tr.add("job", jobID, -1, t0, tEnd)
		do := tr.add("client.do", jobID, root, t0, tEnd)
		tr.add("client.shard", jobID, do, t0, tShard)
		tr.add("core.new_handlers", jobID, do, tShard, tHandlers)
		tr.add("transport.connect", jobID, do, tHandlers, tConnect)
		clock.emitProtocolSpans(tr, jobID, do, tRun, replayDecode(clock, job.cfg))
		tr.add("client.evaluate", jobID, do, tRun, tEnd)
	}
	return out, nil
}

// replayDecode times the coordinator's decoding of the last round's
// captured site payloads (comm.SplitMulti + UnmarshalBinary), the one
// coordinator step that cannot be observed from outside core.RunOverCtx.
func replayDecode(c *jobClock, cfg core.Config) time.Duration {
	c.mu.Lock()
	last := len(c.rounds) - 1
	c.mu.Unlock()
	if last < 0 {
		return 0
	}
	payloads := c.payloads(last)
	t0 := time.Now()
	for _, b := range payloads {
		if _, _, _, err := decodeReply(b, cfg.Objective); err != nil {
			return 0
		}
	}
	return time.Since(t0)
}
