package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"         // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved"        // a side's run-to-run spread is wider than the bound
	verdictNoisy      = "noisy"             // a side has no run whose calibration readings agree
	verdictChanged    = "regressed (exact)" // an exact metric reads worse on a seed both sides ran
)

// exactMetrics repeat bit for bit given the seed, so on a seed both files
// ran they are compared value by value and may not worsen at all; the bound
// only covers comparisons across different seeds. root_inbox_bytes_per_job
// is not among them: a tree batch carries each site's compute time as a
// varint, so its physical size moves by a few bytes with timing.
var exactMetrics = []string{"up_bytes_per_job", "down_bytes_per_job", "cost_ratio"}

// exactWorse reports whether metric d reads worse in b than in a on any seed
// of the workload that both files ran.
func exactWorse(a, b outFile, workload string, d metricDef) bool {
	bySeed := make(map[int64]float64)
	for _, r := range a.Runs {
		if m, ok := r.Metrics[d.Name]; ok && r.Workload == workload && r.Trace == 0 {
			bySeed[r.Seed] = m.Value
		}
	}
	for _, r := range b.Runs {
		m, ok := r.Metrics[d.Name]
		if av, both := bySeed[r.Seed]; ok && both && r.Workload == workload && r.Trace == 0 && worseBy(d, av, m.Value) > 0 {
			return true
		}
	}
	return false
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// direction (negative: better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares one metric's values over A's and B's quiet runs.
func judge(d metricDef, a, b []float64) (verdict string, delta float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictNoisy, math.NaN()
	}
	delta = worseBy(d, median(a), median(b))
	// Every run of B reading better than every run of A settles it however
	// wide the spreads are.
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				allBetter = false
			}
		}
	}
	wide := func(xs []float64) bool { return len(xs) > 1 && spread(xs) > d.Bound }
	switch {
	case allBetter:
		return verdictOK, delta
	case wide(a) || wide(b):
		return verdictUnresolved, delta
	case delta > d.Bound:
		return verdictRegressed, delta
	}
	return verdictOK, delta
}

// cmdCompare prints, per workload × end-to-end metric, both files' medians,
// the delta, the bound and the verdict; it exits 1 on any regression.
func cmdCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: benchmark compare A.json B.json")
		return 2
	}
	var files [2]outFile
	for i, path := range args {
		f, err := readOutFile(path)
		if err != nil {
			fmt.Fprintln(w, "benchmark:", err)
			return 2
		}
		files[i] = f
	}
	// collect returns a metric's values over a file's quiet end-to-end runs
	// of a workload, and how many runs (quiet or not) reported it.
	collect := func(f outFile, workload, metric string) (vals []float64, runs int) {
		for _, r := range f.Runs {
			m, ok := r.Metrics[metric]
			if r.Workload != workload || r.Trace != 0 || !ok {
				continue
			}
			runs++
			if !r.Noisy {
				vals = append(vals, m.Value)
			}
		}
		return vals, runs
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "verdict")
	for _, p := range presets {
		for _, d := range endToEnd {
			a, runsA := collect(files[0], p.Name, d.Name)
			b, runsB := collect(files[1], p.Name, d.Name)
			if runsA == 0 && runsB == 0 {
				continue
			}
			verdict, delta := judge(d, a, b)
			if slices.Contains(exactMetrics, d.Name) && exactWorse(files[0], files[1], p.Name, d) {
				verdict = verdictChanged
			}
			if verdict == verdictRegressed || verdict == verdictChanged {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (runs %d/%d, quiet %d/%d)\n",
				p.Name, d.Name, median(a), median(b), 100*delta, 100*d.Bound, verdict, runsA, runsB, len(a), len(b))
		}
	}
	if regressed {
		return 1
	}
	return 0
}
