package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dpc/client"
	"dpc/internal/dataio"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run of one workload produced. The last line
// of standard output carries its correct/attempted/failed/metrics; `-out`
// files keep whole records so `compare` can see spreads and noisy runs.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    int       `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Sizes    preset    `json:"sizes"`
	Env      envRecord `json:"env"`
	WallS    float64   `json:"wall_s"` // the whole run, set-up to checks

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// CalibMS are the fixed CPU spin's readings before and after the
	// workload; Noisy marks a run where they disagree by more than 10%.
	CalibMS [2]float64 `json:"calib_ms"`
	Noisy   bool       `json:"noisy"`

	// Rounds is what each round of an end-to-end run read: the samples
	// behind setup_s, the job percentiles and the rates.
	Rounds []roundRecord `json:"rounds,omitempty"`

	// Samples is the sample count behind each timing metric. Unresolved
	// lists tail percentiles reported with fewer than ten samples beyond
	// them: printed, but not to be read as resolved.
	Samples    map[string]int         `json:"samples"`
	Unresolved []string               `json:"unresolved,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	TimeTable  []timeRow              `json:"time_table,omitempty"`
	TracePath  string                 `json:"trace_path,omitempty"`
}

// roundRecord is one round of an end-to-end run: a set-up and its share of
// the measured phase.
type roundRecord struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"` // first submit to last reply
	Points int     `json:"points"` // clustered by the completed jobs
	// JobMS are the completed jobs' times in op order, for whoever wants
	// another statistic of them than the ones the run reports.
	JobMS []float64 `json:"job_ms"`
}

func newRecord(p preset, seed int64, trace int, seconds float64) *runRecord {
	return &runRecord{
		Workload: p.Name, Seed: seed, Trace: trace, Seconds: seconds, Sizes: p, Env: readEnv(),
		Samples: make(map[string]int), Metrics: make(map[string]metricValue),
	}
}

// defs is the metric table the run reports: end to end with tracing off,
// per layer with it on.
func (r *runRecord) defs() []metricDef {
	if r.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

// set records a metric; the name must be in the tables of spec.go.
func (r *runRecord) set(name string, v float64) {
	d, ok := metricByName(r.defs(), name)
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go") // a bug in this package
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// setMedian records a timing's median under name (and its sample count).
func (r *runRecord) setMedian(name string, xs []float64) {
	r.set(name, median(xs))
	r.Samples[name] = len(xs)
}

// setTail records a tail percentile, noting when fewer than ten samples lie
// beyond it.
func (r *runRecord) setTail(name string, xs []float64, p float64) {
	v, resolved := percentile(xs, p)
	r.set(name, v)
	r.Samples[name] = len(xs)
	if !resolved {
		r.Unresolved = append(r.Unresolved, name)
	}
}

// check counts one output check.
func (r *runRecord) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish validates that exactly the expected metrics were emitted with
// finite values and closes the record.
func (r *runRecord) finish(start time.Time) error {
	defs := r.defs()
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value (no samples?)", d.Name)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics emitted, spec.go lists %d", len(r.Metrics), len(defs))
	}
	r.Noisy = math.Abs(r.CalibMS[1]-r.CalibMS[0]) > calibTolerance*math.Min(r.CalibMS[0], r.CalibMS[1])
	r.Correct = r.Failed == 0
	r.WallS = time.Since(start).Seconds()
	const keep = 20
	if len(r.Failures) > keep {
		r.Failures = append(r.Failures[:keep], fmt.Sprintf("... and %d more", len(r.Failures)-keep))
	}
	return nil
}

// runOptions are the knobs the self-tests shrink; the command always runs
// with fullOptions.
type runOptions struct {
	seconds float64
	// rounds is how many times the end-to-end run sets the workload up and
	// measures it, each time for seconds/rounds.
	rounds int
	probes probeSizes
	// minTraced is the least number of traced jobs (batch / request).
	minTracedBatch, minTracedRequest int
	// session is the serve preset whose short fixed session prices the
	// service layers in the traced run of the other workloads, for
	// sessionOps ops.
	session    preset
	sessionOps int
}

func fullOptions(seconds float64) runOptions {
	session, _ := presetByName(presets, "serve-mixed")
	return runOptions{
		seconds: seconds, rounds: 5, probes: fullProbes,
		minTracedBatch: 3, minTracedRequest: 50,
		session: session, sessionOps: 40,
	}
}

// roundSeed is the seed round r of a run sets its workload up from: every
// round has inputs of its own, all of them made from the run's seed.
func roundSeed(seed int64, r int) int64 { return seed*64 + int64(r) }

// runEndToEnd measures workload p with tracing off, in opt.rounds rounds.
// Each round sets the workload up afresh on inputs of its own and runs the
// closed loop for its share of opt.seconds, so one run covers several
// instances (runs of different seeds agree with each other) and setup_s is
// the median of opt.rounds measured set-ups. The jobs of all rounds together
// give job_p50_ms and the rates; job_p95_ms is windowedTail's.
func runEndToEnd(ctx context.Context, p preset, seed int64, opt runOptions) (*runRecord, error) {
	start := time.Now()
	rec := newRecord(p, seed, 0, opt.seconds)
	rec.CalibMS[0] = calibrate()

	var up, down, ratio []float64 // one value per exact op
	var rootInbox float64
	var tree bool
	for r := 0; r < opt.rounds; r++ {
		t0 := time.Now()
		w, err := setupWorkload(ctx, p, roundSeed(seed, r), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up of round %d: %w", p.Name, r, err)
		}
		round := roundRecord{SetupS: time.Since(t0).Seconds()}

		samples, wall := measure(ctx, w, p, opt.seconds/float64(opt.rounds))
		var jobMS []float64
		points := 0
		first := make(map[string]opSample) // first answered job of each kind
		for _, s := range samples {
			rec.check(len(s.failures) == 0, "round %d: %s", r, strings.Join(s.failures, "; "))
			if !s.job || s.resp == nil {
				continue
			}
			jobMS = append(jobMS, s.ms)
			points += s.points
			if _, ok := first[s.kind]; !ok {
				first[s.kind] = s
			}
			if s.exact {
				up, down, ratio = append(up, float64(s.up)), append(down, float64(s.down)), append(ratio, s.ratio)
			}
		}
		round.WallS, round.Points, round.JobMS = wall.Seconds(), points, jobMS
		rec.Rounds = append(rec.Rounds, round)

		if r == opt.rounds-1 {
			rootInbox, tree = verifyOutputs(ctx, rec, w, p, first)
		}
		if err := w.close(); err != nil {
			rec.check(false, "tear-down of round %d: %v", r, err)
		}
	}

	var setupS, jobMS []float64
	var wallS float64
	points := 0
	tails := make([][]float64, len(rec.Rounds))
	for i, round := range rec.Rounds {
		setupS, jobMS = append(setupS, round.SetupS), append(jobMS, round.JobMS...)
		wallS, points, tails[i] = wallS+round.WallS, points+round.Points, round.JobMS
	}
	rec.setMedian("setup_s", setupS)
	rec.setMedian("job_p50_ms", jobMS)
	rec.set("job_p95_ms", windowedTail(tails))
	rec.Samples["job_p95_ms"] = len(jobMS)
	if _, resolved := percentile(jobMS, 95); !resolved {
		rec.Unresolved = append(rec.Unresolved, "job_p95_ms")
	}
	rec.set("jobs_per_s", float64(len(jobMS))/wallS)
	rec.set("points_per_s", float64(points)/wallS)
	rec.setMedian("up_bytes_per_job", up)
	rec.setMedian("down_bytes_per_job", down)
	if tree {
		rec.set("root_inbox_bytes_per_job", rootInbox)
	} else {
		// A star's root receives exactly the sites' payloads.
		rec.setMedian("root_inbox_bytes_per_job", up)
	}
	rec.setMedian("cost_ratio", ratio)
	rec.set("peak_rss_mb", peakRSSMB())
	rec.CalibMS[1] = calibrate()
	return rec, rec.finish(start)
}

// verifyOutputs runs the checks that compare a workload's answers against
// another path through the program, after the measured phase:
//
//   - the first job of each kind is byte-identical to client.NewLocal() on
//     the same request, with equal logical up bytes (skipped where the ops
//     are client.Local themselves);
//   - the first job of the preset's objective, replayed below the clients
//     over tree.NewLocal under the workload's topology, returns the same
//     centers, a coordinator instance within 2sk+3t clients and site budgets
//     within 3t.
//
// It returns the physical bytes that arrived on the root's own links in
// that replay, when the topology is a tree.
func verifyOutputs(ctx context.Context, rec *runRecord, w workload, p preset, first map[string]opSample) (rootInbox float64, tree bool) {
	kinds := make([]string, 0, len(first))
	for k := range first {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if p.Kind != kindBatch {
		local := client.NewLocal()
		for _, k := range kinds {
			s := first[k]
			req, ok := w.localRequest(s)
			if !ok {
				continue
			}
			want, err := local.Do(ctx, req)
			if err != nil {
				rec.check(false, "local twin of op %d (%s): %v", s.idx, k, err)
				continue
			}
			rec.check(sameCenters(s.resp.Centers, want.Centers), "op %d (%s): centers differ from client.NewLocal on the same request", s.idx, k)
			rec.check(s.up == want.UpBytes, "op %d (%s): %d logical up bytes, the local star ships %d", s.idx, k, s.up, want.UpBytes)
		}
	}
	s, ok := first[p.Objective]
	if !ok {
		rec.check(false, "no %s job completed", p.Objective)
		return 0, false
	}
	out, err := runReplica(ctx, w.pointJob(s.idx), wire{kind: transport.KindLoopback, parallel: true, topo: w.topo()}, nil, s.idx)
	if err != nil {
		rec.check(false, "replay of op %d below the clients: %v", s.idx, err)
		return 0, false
	}
	rec.check(sameCenters(s.resp.Centers, out.res.Centers), "op %d: centers differ from the lower-level replay", s.idx)
	bound := 2*p.Sites*p.K + 3*p.T
	rec.check(out.res.CoordinatorClients <= bound, "op %d: coordinator instance has %d clients > 2sk+3t = %d", s.idx, out.res.CoordinatorClients, bound)
	rec.check(sumInts(out.res.SiteBudgets) <= 3*p.T, "op %d: site budgets sum to %d > 3t", s.idx, sumInts(out.res.SiteBudgets))
	if ts := out.res.Report.Tree; ts != nil {
		return float64(ts.RootUpBytes()), true
	}
	return 0, false
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// runTraced repeats workload p through the lower-level entry points with
// stopwatches, runs the layer probes on its data and a service session,
// and reduces all of it to the per-layer metrics. Spans go to
// out/trace-<workload>.json.
func runTraced(ctx context.Context, p preset, seed int64, opt runOptions) (*runRecord, error) {
	start := time.Now()
	rec := newRecord(p, seed, 1, opt.seconds)
	rec.CalibMS[0] = calibrate()
	tr := newTracer()
	w, err := setupWorkload(ctx, p, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", p.Name, err)
	}
	closeOnce := sync.OnceValue(w.close)
	defer closeOnce()
	// The serve workload's trace is its session's; its point-job replays
	// only feed the core.*/comm.* numbers, so their spans stay out of it.
	jobTr := tr
	if p.Kind == kindServe {
		jobTr = newTracer()
	}
	budget := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * opt.seconds * float64(time.Second)))
	}

	// 1. Traced jobs, sites sequential, spans recorded.
	minJobs := opt.minTracedBatch
	if p.Kind == kindFanin {
		minJobs = opt.minTracedRequest
	}
	var jobs []replicaResult
	for until := budget(0.3); len(jobs) < minJobs || time.Now().Before(until); {
		out, err := w.traced(ctx, jobTr, len(jobs))
		if err != nil {
			return nil, fmt.Errorf("%s: traced job %d: %w", p.Name, len(jobs), err)
		}
		jobs = append(jobs, out)
	}
	twin, _ := w.localRequest(opSample{idx: 0, kind: p.Objective})
	want, err := client.NewLocal().Do(ctx, twin)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced twin of job 0: %w", p.Name, err)
	}
	rec.check(sameCenters(jobs[0].res.Centers, want.Centers), "traced job 0: centers differ from the untraced client path")
	bound := 2*p.Sites*p.K + 3*p.T
	for i, j := range jobs {
		rec.check(j.res.CoordinatorClients <= bound && sumInts(j.res.SiteBudgets) <= 3*p.T,
			"traced job %d: %d coordinator clients (bound %d), site budgets sum %d (bound %d)",
			i, j.res.CoordinatorClients, bound, sumInts(j.res.SiteBudgets), 3*p.T)
	}
	reduceTracedJobs(rec, jobs)

	// 2. The same jobs bare: what the stopwatches cost.
	var bareMS []float64
	for i, until := 0, budget(0.15); i < 2 || (i < len(jobs) && time.Now().Before(until)); i++ {
		d, err := w.bare(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("%s: bare job %d: %w", p.Name, i, err)
		}
		bareMS = append(bareMS, float64(d.Nanoseconds())/1e6)
	}
	tracedMS := make([]float64, len(jobs))
	for i, j := range jobs {
		tracedMS[i] = float64(j.total.Nanoseconds()) / 1e6
	}
	rec.setMedian("bench.traced_job_p50_ms", tracedMS)
	rec.set("bench.trace_overhead_pct", 100*(median(tracedMS)-median(bareMS))/median(bareMS))

	// 3. The tree against the star on this workload's point job, and the
	// same job over real localhost sockets.
	if err := priceTopologies(ctx, rec, w, p, jobs, budget(0.1)); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}

	// 4. Layer probes on site 0's shard and job 0's captured payloads.
	job0 := w.pointJob(0)
	probes, err := runProbes(ctx, probeInput{
		shard: dataio.SplitRoundRobin(job0.pts, job0.sites)[0], cfg: job0.cfg,
		hulls: jobs[0].clock.payloads(0), preclusters: jobs[0].clock.payloads(1),
	}, opt.probes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	for name, v := range probes {
		rec.set(name, v)
	}

	// 5. The service layers: the workload's own session when it is the
	// serve workload, a short fixed session otherwise.
	if sw, ok := w.(*serveWorkload); ok {
		err = reduceSession(ctx, rec, sw, p, opt.seconds*0.35)
	} else {
		sp := opt.session
		sp.ExactOps = opt.sessionOps
		var sw *serveWorkload
		if sw, err = setupServe(ctx, sp, seed, newTracer()); err == nil {
			err = reduceSession(ctx, rec, sw, sp, 0)
			err = errors.Join(err, sw.close())
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: service session: %w", p.Name, err)
	}

	spans := tr.snapshot()
	rows, njobs := timeTable(spans)
	rec.TimeTable = rows
	rec.set("bench.span_coverage_pct", shareOf(rows, func(c string) bool { return c != "job" && c != "client.do" }))
	jobRows, _ := timeTable(jobTr.snapshot())
	rec.set("bench.site_share_pct", shareOf(jobRows, func(c string) bool { return strings.HasPrefix(c, "core.site.") }))
	dir, err := outDir()
	if err != nil {
		return nil, err
	}
	rec.TracePath = filepath.Join(dir, "trace-"+p.Name+".json")
	if err := writeChromeTrace(rec.TracePath, spans); err != nil {
		return nil, err
	}
	fmt.Print(formatTimeTable(p.Name, rows, njobs))

	if err := closeOnce(); err != nil {
		rec.check(false, "tear-down: %v", err)
	}
	rec.CalibMS[1] = calibrate()
	rec.set("bench.calib_ms_before", rec.CalibMS[0])
	rec.set("bench.calib_ms_after", rec.CalibMS[1])
	return rec, rec.finish(start)
}

// reduceTracedJobs turns the traced jobs' stopwatch readings and reports
// into the core.*, comm.* and metric.cache_* metrics (medians over jobs).
func reduceTracedJobs(rec *runRecord, jobs []replicaResult) {
	secs := func(ds []time.Duration) (sum, max, med float64) {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = d.Seconds()
			sum += xs[i]
			max = math.Max(max, xs[i])
		}
		return sum, max, median(xs)
	}
	cols := make(map[string][]float64)
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	var hits, misses float64
	for _, j := range jobs {
		sum0, max0, med0 := secs(j.clock.siteDurations(0))
		sum1, max1, _ := secs(j.clock.siteDurations(1))
		add("core.site_r0_sum_s", sum0)
		add("core.site_r0_max_s", max0)
		add("core.site_r1_sum_s", sum1)
		add("core.site_r1_max_s", max1)
		add("core.straggler_x", max0/med0)
		rep := j.res.Report
		add("core.coord_s", rep.CoordWork.Seconds())
		add("core.coord_clients", float64(j.res.CoordinatorClients))
		add("core.sum_site_budgets", float64(sumInts(j.res.SiteBudgets)))
		add("comm.up_bytes_r0", float64(rep.RoundUp[0]))
		add("comm.up_bytes_r1", float64(rep.RoundUp[1]))
		add("comm.down_bytes_r1", float64(rep.RoundDown[1]))
		add("comm.bytes_per_coord_client", float64(rep.UpBytes)/float64(j.res.CoordinatorClients))
		add("metric.cache_hits_per_job", float64(j.hits))
		add("metric.cache_misses_per_job", float64(j.misses))
		add("client.local_overhead_ms", float64((j.shard+j.eval).Nanoseconds())/1e6)
		hits, misses = hits+float64(j.hits), misses+float64(j.misses)
	}
	for name, xs := range cols {
		rec.setMedian(name, xs)
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rec.set("metric.cache_hit_ratio", ratio)
}

// roundOverheads returns, per round of a job that ran with concurrent
// sites, the Gather call's wall time beyond its slowest handler: framing,
// sockets, tree pack/unpack and scheduling.
func roundOverheads(c *jobClock) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for _, rc := range c.rounds {
		var slowest time.Duration
		for _, iv := range rc.sites {
			if d := iv.dur(); d > slowest {
				slowest = d
			}
		}
		out = append(out, float64((rc.gather.dur()-slowest).Nanoseconds())/1e6)
	}
	return out
}

// priceTopologies fills the tree.* and transport.{connect_s,
// round_overhead_ms} metrics. Star and tree run the workload's point job
// bare over sequential loopback sites, alternating, until the deadline (at
// least once each). The fan-in workload's own fleet already is the TCP tree,
// so its connect time and round overheads come from the traced jobs; the
// others run one stopwatched job over tree.NewLocal's TCP wire.
func priceTopologies(ctx context.Context, rec *runRecord, w workload, p preset, jobs []replicaResult, until time.Time) error {
	spec := tree.Spec{Tree: true, Branch: p.Branch}
	var starMS, treeMS []float64
	var treed replicaResult
	for i := 0; i < 1 || time.Now().Before(until); i++ {
		star, err := runReplica(ctx, w.pointJob(i), wire{kind: transport.KindLoopback}, nil, i)
		if err != nil {
			return fmt.Errorf("star replay: %w", err)
		}
		if treed, err = runReplica(ctx, w.pointJob(i), wire{kind: transport.KindLoopback, topo: spec}, nil, i); err != nil {
			return fmt.Errorf("tree replay: %w", err)
		}
		if !sameCenters(star.res.Centers, treed.res.Centers) {
			rec.check(false, "job %d: tree and star centers differ", i)
		}
		starMS = append(starMS, float64(star.total.Nanoseconds())/1e6)
		treeMS = append(treeMS, float64(treed.total.Nanoseconds())/1e6)
	}
	rec.set("tree.overhead_ms", median(treeMS)-median(starMS))
	rec.Samples["tree.overhead_ms"] = len(treeMS)
	rep := treed.res.Report
	levels, inbox, leaf := 1, rep.UpBytes, rep.UpBytes // a star (or a degenerate tree): one level of links
	if ts := rep.Tree; ts != nil && len(ts.Levels) > 0 {
		levels, inbox, leaf = len(ts.Levels), ts.Levels[0].Up, ts.Levels[len(ts.Levels)-1].Up
	}
	rec.set("tree.levels", float64(levels))
	rec.set("tree.root_inbox_bytes", float64(inbox))
	rec.set("tree.leaf_bytes", float64(leaf))
	rec.set("tree.inbox_ratio", float64(inbox)/float64(rep.UpBytes))

	if fw, ok := w.(*faninWorkload); ok {
		var over []float64
		for _, j := range jobs {
			over = append(over, roundOverheads(j.clock)...)
		}
		rec.set("transport.connect_s", fw.connect.Seconds())
		rec.setMedian("transport.round_overhead_ms", over)
		return nil
	}
	tcp, err := runReplica(ctx, w.pointJob(0), wire{kind: transport.KindTCP, parallel: true, topo: w.topo()}, newTracer(), 0)
	if err != nil {
		return fmt.Errorf("tcp replay: %w", err)
	}
	rec.set("transport.connect_s", tcp.connect.Seconds())
	rec.setMedian("transport.round_overhead_ms", roundOverheads(tcp.clock))
	return nil
}

// reduceSession runs the serve workload's closed loop for `seconds` (and at
// least p.ExactOps ops) with the HTTP steps timed, then stops the server,
// restarts one on its journal, and reduces everything to the serve.*,
// journal.disk_bytes and client.remote_overhead_ms metrics.
func reduceSession(ctx context.Context, rec *runRecord, sw *serveWorkload, p preset, seconds float64) error {
	samples, _ := measure(ctx, sw, p, seconds)
	cols := make(map[string][]float64)
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for _, s := range samples {
		rec.check(len(s.failures) == 0, "service session: %s", strings.Join(s.failures, "; "))
		switch {
		case len(s.failures) > 0:
		case !s.job:
			add("serve.append_ms", s.ms)
		default:
			add("serve.submit_ms", s.submitMS)
			add("serve.get_job_ms", s.getMS)
			add("queue", s.queueMS)
			add("serve.run_ms."+s.kind, s.runMS)
			add("tail."+s.kind, s.ms)
			add("client.remote_overhead_ms", s.ms-s.serverMS)
		}
	}
	st, err := sw.stats(ctx)
	if err != nil {
		return err
	}
	if err := sw.stop(); err != nil {
		return err
	}
	replay, err := sw.restartReplay()
	if err != nil {
		return err
	}
	rec.setMedian("serve.register_ms", sw.registerMS)
	for _, name := range []string{"serve.append_ms", "serve.submit_ms", "serve.get_job_ms", "client.remote_overhead_ms"} {
		rec.setMedian(name, cols[name])
	}
	rec.setMedian("serve.queue_wait_p50_ms", cols["queue"])
	rec.setTail("serve.queue_wait_p95_ms", cols["queue"], 95)
	for _, kind := range []string{opMedian, opCenter, opUMedian, opMedianCold} {
		rec.setMedian("serve.run_ms."+kind, cols["serve.run_ms."+kind])
		rec.setTail("serve.job_p95_by_kind_ms."+kind, cols["tail."+kind], 95)
	}
	rec.set("serve.cache_hit_ratio", st.hotHitRatio)
	rec.set("serve.rejected_503", st.rejected503)
	rec.set("serve.restart_replay_s", replay.Seconds())
	rec.set("journal.disk_bytes", st.diskBytes)
	return nil
}
