// Package bench is the experiment harness behind EXPERIMENTS.md: one
// function per experiment ID (E1..E12 in DESIGN.md), each reproducing one
// row-group of Table 1/Table 2 or one figure-style claim of the paper and
// returning a formatted table of measurements.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks instance sizes (used by the go-test benchmarks; the
	// full sizes are for cmd/dpc-tables).
	Quick bool
	// Workers bounds solver goroutines (0 = one per CPU). Any value
	// produces identical tables; it only moves wall-clock.
	Workers int
	// NoCache disables the memoized distance oracles (identical tables,
	// different wall-clock).
	NoCache bool
	// Reference runs every solver through the seed sequential engine —
	// the baseline half of cmd/dpc-bench's engine comparison. Implies
	// Workers=1 and NoCache.
	Reference bool
	// Index layers the pivot-based metric index over the solver oracles
	// (identical tables — pruning is exact; different wall-clock). Pivots
	// is its anchor count (0 = metric.DefaultPivots).
	Index  bool
	Pivots int
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
}

// All returns the registry of experiments in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Table 1 median: comm is Otilde((sk+t)B), independent of n", E1MedianCommVsN},
		{"E2", "Table 1/2 median: 2-round (sk+t) vs 1-round (sk+st) scaling", E2MedianCommVsST},
		{"E3", "Table 1 median/means: (1+eps)t bicriteria cost vs eps", E3EpsSweep},
		{"E4", "Table 1 center: Algorithm 2 vs 1-round baseline", E4Center},
		{"E5", "Table 1 uncertain: compressed graph removes the I factor", E5Uncertain},
		{"E6", "Table 1 center-g: comm Otilde(skB + tI + s logDelta)", E6CenterG},
		{"E7", "Theorem 3.10: subquadratic centralized scaling", E7Subquadratic},
		{"E8", "Table 2 one-round rows: measured comm vs formula", E8OneRoundFormula},
		{"E9", "Theorem 3.8: no-ship variant comm flat in t", E9NoShip},
		{"E10", "Figure 1 / Lemmas 5.3-5.4: compression sandwich", E10Compression},
		{"E11", "Lemma 3.3: allocation optimality", E11Allocation},
		{"E12", "Theorem 3.6: site wall-time scales ~1/s", E12SiteSpeedup},
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
