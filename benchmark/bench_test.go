package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The contract's shapes for names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestVocabulary pins the contract's shape for names, units, bounds and
// counts, and that no name is used twice.
func TestVocabulary(t *testing.T) {
	seen := make(map[string]bool)
	claim := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(presets); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, p := range presets {
		claim(p.Name)
		if len(p.Why) == 0 || len(p.Why) > 200 || strings.Contains(p.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", p.Name, len(p.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		claim(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := metricByName(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; got %+v", d)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d", runSeconds)
	}
}

// TestManifestMatchesFile pins BENCHMARK.json to the tables in spec.go, in
// both directions: the file is exactly what `manifest` renders.
func TestManifestMatchesFile(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `benchmark manifest`; regenerate it with: bash benchmark/run.sh manifest > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes (max 64 KiB)", len(got))
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %g resolved=%v, want 190 true (ten samples beyond)", v, ok)
	}
	if v, ok := percentile(xs[:199], 95); v != 190 || ok {
		t.Errorf("p95 of 1..199 = %g resolved=%v, want 190 false (nine samples beyond)", v, ok)
	}
	if v, ok := percentile(xs[:20], 50); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %g resolved=%v, want 10 true", v, ok)
	}
	if _, ok := percentile(nil, 95); ok {
		t.Error("an empty sample resolved a percentile")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs[:10])
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread(xs[:10]); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want 1", s)
	}
}

// TestWindowedTail: the tail estimate is the median of the maxima of
// 14-job windows cut within rounds, and a burst that hits fewer than half
// of the windows does not move it.
func TestWindowedTail(t *testing.T) {
	seq := func(from, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(from + i)
		}
		return xs
	}
	// Windows 1..14 and 15..28 (29 and 30 are left over), and a short round.
	if v := windowedTail([][]float64{seq(1, 30), {5, 3}}); v != 14 {
		t.Errorf("windowedTail = %g, want 14 (median of maxima 14, 28, 5)", v)
	}
	if v := windowedTail(nil); !math.IsNaN(v) {
		t.Errorf("windowedTail of nothing = %g, want NaN", v)
	}
	// Ten alike windows; a burst triples every job of four of them. The
	// plain p95 of all 140 jobs jumps into the burst, the windowed one stays.
	var quiet, burst []float64
	for w := 0; w < 10; w++ {
		for _, x := range seq(100, tailWindow) {
			quiet = append(quiet, x)
			if w >= 3 && w < 7 {
				x *= 3
			}
			burst = append(burst, x)
		}
	}
	if q, b := windowedTail([][]float64{quiet}), windowedTail([][]float64{burst}); q != 113 || b != 113 {
		t.Errorf("windowedTail = %g quiet, %g with a burst, want 113 both", q, b)
	}
	if p, _ := percentile(burst, 95); p < 300 {
		t.Errorf("plain p95 with the burst = %g; the test expects it inside the burst", p)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Job: 0, Name: "job", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Job: 0, Name: "transport.gather.r0", Start: ms(10), End: ms(70)},
		// Two handlers under the gather, concurrent for 10 ms.
		{ID: 2, Parent: 1, Job: 0, Name: "core.site0.r0", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Job: 0, Name: "core.site1.r0", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 0, Job: 0, Name: "core.coord", Start: ms(70), End: ms(90)},
		{ID: 5, Parent: 4, Job: 0, Name: "comm.decode", Start: ms(70), End: ms(75)},
		// A second, concurrent client's job: roots never share.
		{ID: 6, Parent: -1, Job: 1, Name: "job", Start: ms(50), End: ms(150)},
	}
	want := []time.Duration{ms(20), ms(10), ms(25), ms(25), ms(15), ms(5), ms(100)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s (id %d) = %v, want %v", spans[i].Name, i, got[i], want[i])
		}
	}
	rows, jobs := timeTable(spans)
	if jobs != 2 {
		t.Fatalf("timeTable saw %d jobs, want 2", jobs)
	}
	byClass := make(map[string]timeRow)
	var share float64
	for _, r := range rows {
		byClass[r.Class] = r
		share += r.SharePct
	}
	if r := byClass["core.site.r0"]; r.SelfMS != 25 || r.SharePct != 25 {
		t.Errorf("core.site.r0 row = %+v, want 25 ms/job and 25%%", r)
	}
	if math.Abs(share-100) > 1e-9 {
		t.Errorf("shares sum to %g%%, want 100", share)
	}
	if c := spanClass("core.site17.r1"); c != "core.site.r1" {
		t.Errorf("spanClass = %q", c)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 102, 98}, verdictOK},
		{"slower within bound", lower, []float64{100, 101, 99}, []float64{108, 109, 107}, verdictOK},
		{"slower beyond bound", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictRegressed},
		{"faster", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictOK},
		{"rate down beyond bound", higher, []float64{50, 51, 49}, []float64{40, 41, 39}, verdictRegressed},
		{"rate up", higher, []float64{50, 51, 49}, []float64{60, 61, 59}, verdictOK},
		{"wide spread", lower, []float64{100, 140, 70}, []float64{105, 150, 75}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{100, 140, 90}, []float64{50, 80, 40}, verdictOK},
		{"no quiet run", lower, nil, []float64{100}, verdictNoisy},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64, noisy bool) string {
		path := dir + "/" + name
		for _, v := range p50 {
			rec := &runRecord{Workload: "median-shards", Noisy: noisy, Metrics: map[string]metricValue{
				"job_p50_ms": {Value: v, Unit: "ms"},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", []float64{100, 101, 99}, false)
	slow := write("slow.json", []float64{130, 131, 129}, false)
	var out bytes.Buffer
	if code := cmdCompare([]string{a, a}, &out); code != 0 {
		t.Errorf("compare of a file with itself exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := cmdCompare([]string{a, slow}, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("compare against a 30%% slower file exited %d:\n%s", code, out.String())
	}
	out.Reset()
	// An exact metric that worsens at all on a shared seed is a regression,
	// however far inside its cross-seed bound.
	exact := func(name string, bytes float64) string {
		path := dir + "/" + name
		rec := &runRecord{Workload: "median-shards", Seed: 7, Metrics: map[string]metricValue{
			"up_bytes_per_job": {Value: bytes, Unit: "B"},
		}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if code := cmdCompare([]string{exact("e1.json", 4000), exact("e2.json", 4004)}, &out); code != 1 || !strings.Contains(out.String(), verdictChanged) {
		t.Errorf("compare of 4000 vs 4004 up bytes on one seed exited %d:\n%s", code, out.String())
	}
	out.Reset()
	noisy := write("noisy.json", []float64{130}, true)
	if code := cmdCompare([]string{a, noisy}, &out); code != 0 || !strings.Contains(out.String(), verdictNoisy) {
		t.Errorf("compare against only noisy runs exited %d:\n%s", code, out.String())
	}
}

// tinyPresets shrink every workload so the self-tests run all four end to
// end in a couple of seconds. Properties that define a workload (which side
// of MaxCachePoints a shard sits on) are not preserved; only the code paths
// are.
func tinyPresets() []preset {
	out := make([]preset, len(presets))
	copy(out, presets)
	for i := range out {
		p := &out[i]
		switch p.Kind {
		case kindBatch:
			p.N, p.T, p.Datasets, p.ExactOps = 240, 6, 2, 2
			if p.Sites > 4 {
				p.Sites = 4
			}
		case kindFanin:
			p.N, p.T, p.Sites, p.Branch, p.Warmup, p.ExactOps = 160, 8, 4, 2, 1, 3
		case kindServe:
			p.N, p.T, p.Sites, p.Warmup, p.ExactOps = 240, 6, 4, 4, 20
			p.IngestN, p.AppendPts, p.UncN, p.UncT = 120, 10, 60, 3
		}
	}
	return out
}

var tinyProbes = probeSizes{
	distPairs: 1 << 12, nearestCalls: 200, jvPoints: 60,
	rttRounds: 10, bulkRounds: 2, bulkBytes: 1 << 14,
	syncAppends: 5, appends: 50, codecReps: 5,
}

func tinyOptions() runOptions {
	session, _ := presetByName(tinyPresets(), "serve-mixed")
	return runOptions{
		seconds: 0.1, rounds: 2, probes: tinyProbes,
		minTracedBatch: 2, minTracedRequest: 3,
		session: session, sessionOps: len(opMix),
	}
}

// TestTinyWorkloads runs all four workloads end to end at tiny size: every
// end-to-end metric is emitted, every output check passes, and a second run
// of the same seed reproduces the exact metrics.
func TestTinyWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, p := range tinyPresets() {
		t.Run(p.Name, func(t *testing.T) {
			var first *runRecord
			for run := 0; run < 2; run++ {
				rec, err := runEndToEnd(ctx, p, devSeed, tinyOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Attempted < 2*p.ExactOps {
					t.Fatalf("run %d: %d/%d checks failed: %v", run, rec.Failed, rec.Attempted, rec.Failures)
				}
				if first == nil {
					first = rec
					continue
				}
				for _, name := range exactMetrics {
					if a, b := first.Metrics[name].Value, rec.Metrics[name].Value; a != b {
						t.Errorf("%s: %v on the first run, %v on the second of the same seed", name, a, b)
					}
				}
			}
		})
	}
}

// TestTinyTraced runs the traced run of all four workloads at tiny size:
// every per-layer metric is emitted and the traced centers match the
// untraced client path.
func TestTinyTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs of all four workloads take a few seconds")
	}
	ctx := context.Background()
	for _, p := range tinyPresets() {
		t.Run(p.Name, func(t *testing.T) {
			rec, err := runTraced(ctx, p, devSeed, tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("%d/%d checks failed: %v", rec.Failed, rec.Attempted, rec.Failures)
			}
			if rec.Metrics["bench.span_coverage_pct"].Value < 50 {
				t.Errorf("spans cover %.1f%% of the traced jobs", rec.Metrics["bench.span_coverage_pct"].Value)
			}
			if _, err := os.Stat(rec.TracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}
			os.Remove(rec.TracePath)
		})
	}
}

// TestRefusesTooManyClients: a workload never starts with more client
// goroutines than the machine has processors.
func TestRefusesTooManyClients(t *testing.T) {
	p := tinyPresets()[0]
	p.Clients = 1 << 20
	if _, err := setupWorkload(context.Background(), p, devSeed, nil); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Fatalf("set-up with %d clients: %v", p.Clients, err)
	}
}
