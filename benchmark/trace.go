package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (-1 for a root).
// Times are offsets from the tracer's epoch.
type span struct {
	ID     int
	Parent int
	Job    int
	Name   string
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans in memory; they are written out when the run ends.
// All spans are recorded from the benchmark's side of a call into the
// program (stopwatches around handlers and transports), never inside it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// siblingShares splits the time a group of sibling spans covers among them:
// every instant is divided equally between the siblings active at it. A
// span that overlaps no sibling keeps its whole duration; concurrent site
// handlers under one gather share the gather's wall time, so shares add up
// to the covered wall time instead of to the summed (oversubscribed)
// handler times.
func siblingShares(kids []span) []time.Duration {
	cuts := make([]time.Duration, 0, 2*len(kids))
	for _, k := range kids {
		cuts = append(cuts, k.Start, k.End)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	shares := make([]float64, len(kids))
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if hi == lo {
			continue
		}
		var active []int
		for i, k := range kids {
			if k.Start <= lo && k.End >= hi {
				active = append(active, i)
			}
		}
		for _, i := range active {
			shares[i] += float64(hi-lo) / float64(len(active))
		}
	}
	out := make([]time.Duration, len(kids))
	for i, v := range shares {
		out[i] = time.Duration(v)
	}
	return out
}

// selfTimes returns, per span ID, the span's self time: its share of wall
// time (see siblingShares; root spans keep their duration — concurrent
// clients' jobs each own their latency) minus what its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	share := make([]time.Duration, len(spans))
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			share[s.ID] = s.dur()
		}
	}
	for parent, kids := range children {
		for i, d := range siblingShares(kids) {
			share[kids[i].ID] = d
			covered[parent] += d
		}
	}
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.dur() <= 0 {
			continue
		}
		own := s.dur() - covered[s.ID]
		if own < 0 {
			own = 0 // children clipped to the parent never exceed it; clock skew might
		}
		self[s.ID] = time.Duration(float64(own) * float64(share[s.ID]) / float64(s.dur()))
	}
	return self
}

// spanClass folds per-site and per-round span names into the row the
// "where the time goes" table reports: core.site3.r0 -> core.site.r0.
func spanClass(name string) string {
	parts := strings.Split(name, ".")
	for i, p := range parts {
		if strings.HasPrefix(p, "site") && len(p) > 4 {
			parts[i] = "site"
		}
	}
	return strings.Join(parts, ".")
}

// timeRow is one line of the "where the time goes" table.
type timeRow struct {
	Class    string  `json:"class"`
	SelfMS   float64 `json:"self_ms_per_job"`
	SharePct float64 `json:"share_pct"`
}

// timeTable reduces spans to self time per class per job, as a share of the
// summed root ("job") spans. jobs is the number of root spans.
func timeTable(spans []span) (rows []timeRow, jobs int) {
	self := selfTimes(spans)
	byClass := make(map[string]time.Duration)
	var total time.Duration
	for i, s := range spans {
		byClass[spanClass(s.Name)] += self[i]
		if s.Parent < 0 {
			total += s.dur()
			jobs++
		}
	}
	if jobs == 0 || total == 0 {
		return nil, jobs
	}
	for c, d := range byClass {
		rows = append(rows, timeRow{
			Class:    c,
			SelfMS:   float64(d.Microseconds()) / 1000 / float64(jobs),
			SharePct: 100 * float64(d) / float64(total),
		})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfMS != rows[b].SelfMS {
			return rows[a].SelfMS > rows[b].SelfMS
		}
		return rows[a].Class < rows[b].Class
	})
	return rows, jobs
}

// shareOf sums the table's share over the classes keep accepts.
func shareOf(rows []timeRow, keep func(class string) bool) float64 {
	var pct float64
	for _, r := range rows {
		if keep(r.Class) {
			pct += r.SharePct
		}
	}
	return pct
}

func formatTimeTable(workload string, rows []timeRow, jobs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "where the time goes: %s (%d traced jobs)\n", workload, jobs)
	fmt.Fprintf(&b, "  %-28s %14s %8s\n", "span class", "self ms/job", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %14.3f %7.1f%%\n", r.Class, r.SelfMS, r.SharePct)
	}
	return b.String()
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete "X"
// events, one thread per job), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1000,
			Dur: float64(s.dur().Nanoseconds()) / 1000,
			PID: 1, TID: s.Job,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "job": s.Job},
		}
	}
	raw, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
