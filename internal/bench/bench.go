// Package bench is the experiment harness of the paper reproduction: one
// function per experiment ID (E1..E12, listed by `dpc-tables -list`), each
// reproducing one row-group of Table 1/Table 2 or one figure-style claim of
// the paper and returning a formatted table of measurements.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"dpc/internal/engine"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks instance sizes (used by the go-test benchmarks; the
	// full sizes are for cmd/dpc-tables).
	Quick bool
	// Engine configures every solver the experiment runs. No setting
	// changes a table that is not Timed — TestAllExperimentsQuick compares
	// the Reference and Index engines' tables to the default engine's cell
	// by cell — only wall-clock moves.
	Engine engine.Options
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim under test
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form observation.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "   paper claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Brief string
	Run   func(Options) Table
	// Timed marks a table with wall-clock columns: its cells legitimately
	// differ from run to run, so no test compares them.
	Timed bool
}

// All returns the registry of experiments in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Brief: "Table 1 median: comm is Otilde((sk+t)B), independent of n", Run: E1MedianCommVsN},
		{ID: "E2", Brief: "Table 1/2 median: 2-round (sk+t) vs 1-round (sk+st) scaling", Run: E2MedianCommVsST},
		{ID: "E3", Brief: "Table 1 median/means: (1+eps)t bicriteria cost vs eps", Run: E3EpsSweep},
		{ID: "E4", Brief: "Table 1 center: Algorithm 2 vs 1-round baseline", Run: E4Center},
		{ID: "E5", Brief: "Table 1 uncertain: compressed graph removes the I factor", Run: E5Uncertain},
		{ID: "E6", Brief: "Table 1 center-g: comm Otilde(skB + tI + s logDelta)", Run: E6CenterG},
		{ID: "E7", Brief: "Theorem 3.10: subquadratic centralized scaling", Run: E7Subquadratic, Timed: true},
		{ID: "E8", Brief: "Table 2 one-round rows: measured comm vs formula", Run: E8OneRoundFormula},
		{ID: "E9", Brief: "Theorem 3.8: no-ship variant comm flat in t", Run: E9NoShip},
		{ID: "E10", Brief: "Figure 1 / Lemmas 5.3-5.4: compression sandwich", Run: E10Compression},
		{ID: "E11", Brief: "Lemma 3.3: allocation optimality", Run: E11Allocation},
		{ID: "E12", Brief: "Theorem 3.6: site wall-time scales ~1/s", Run: E12SiteSpeedup, Timed: true},
	}
	sort.Slice(exps, func(a, b int) bool { return exps[a].ID < exps[b].ID })
	return exps
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// kb formats bytes as KiB with 1 decimal.
func kb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }

// f2 formats a float with 2 decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// f3 formats a float with 3 decimals.
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
