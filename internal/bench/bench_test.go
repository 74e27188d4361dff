package bench

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpc/internal/engine"
)

func TestTableFormatting(t *testing.T) {
	tb := Table{ID: "X", Title: "demo", Claim: "c", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"== X: demo", "paper claim: c", "a", "bb", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Brief == "" {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("e11"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

// extraEngines are the engine configurations whose tables must equal the
// default engine's. engines_norace_test.go fills it; it stays empty under
// -race, where the reference engine alone would cost minutes.
var extraEngines map[string]engine.Options

var update = flag.Bool("update", false, "rewrite testdata/quick_seed1.golden from this run's tables")

const goldenPath = "testdata/quick_seed1.golden"

// readGolden splits the golden file into one rendered table per experiment
// ID. Tables are separated by a blank line and open with "== ID: title".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/bench -run TestAllExperimentsQuick -update)", err)
	}
	golden := map[string]string{}
	for _, block := range strings.Split(strings.TrimSuffix(string(raw), "\n\n"), "\n\n") {
		id, _, ok := strings.Cut(strings.TrimPrefix(block, "== "), ":")
		if !ok || !strings.HasPrefix(block, "== ") {
			t.Fatalf("%s: block does not open with a table heading:\n%s", goldenPath, block)
		}
		golden[id] = block + "\n"
	}
	return golden
}

// diffTables names every cell in which got departs from want.
func diffTables(want, got Table) []string {
	if !reflect.DeepEqual(want.Header, got.Header) {
		return []string{fmt.Sprintf("header %q, want %q", got.Header, want.Header)}
	}
	if len(want.Rows) != len(got.Rows) {
		return []string{fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))}
	}
	var diffs []string
	for r := range want.Rows {
		if len(want.Rows[r]) != len(got.Rows[r]) {
			diffs = append(diffs, fmt.Sprintf("row %d: %d cells, want %d", r, len(got.Rows[r]), len(want.Rows[r])))
			continue
		}
		for c := range want.Rows[r] {
			if want.Rows[r][c] != got.Rows[r][c] {
				diffs = append(diffs, fmt.Sprintf("row %d %s: %q, want %q", r, want.Header[c], got.Rows[r][c], want.Rows[r][c]))
			}
		}
	}
	return diffs
}

// diffLines names every line in which the rendered table got departs from
// want.
func diffLines(want, got string) []string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	if len(w) != len(g) {
		return []string{fmt.Sprintf("%d lines, want %d", len(g), len(w))}
	}
	var diffs []string
	for i := range w {
		if w[i] != g[i] {
			diffs = append(diffs, fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, g[i], w[i]))
		}
	}
	return diffs
}

// TestAllExperimentsQuick is the integration test for the whole harness and
// the regression gate on what it measures. Every experiment must run in
// quick mode and produce a non-empty table. Every table without wall-clock
// columns must also (a) come out cell-for-cell identical under the
// Reference engine — a speed-up that changes a result is a bug, and
// E5/E6/E10 are reached by no other parity test — and (b) equal the
// checked-in golden, so a change that moves an objective value, a byte
// count or a cost ratio says so in its diff. The golden is compared on
// amd64 only: elsewhere the compiler may fuse a multiply-add and
// legitimately move a low bit, while (a) holds on every platform. The
// full-size runs live in cmd/dpc-tables and the root benchmarks.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	var golden map[string]string
	if !*update {
		golden = readGolden(t)
	}
	var mu sync.Mutex
	rendered := map[string]string{} // what -update writes
	untimed := 0
	for _, e := range All() {
		e := e
		if !e.Timed {
			untimed++
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tb := e.Run(Options{Seed: 1, Quick: true})
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if tb.ID != e.ID {
				t.Fatalf("table ID %q != experiment ID %q", tb.ID, e.ID)
			}
			text := tb.String()
			t.Logf("\n%s", text)
			if e.Timed {
				return
			}
			mu.Lock()
			rendered[e.ID] = text
			mu.Unlock()
			if !*update && runtime.GOARCH == "amd64" {
				for _, d := range diffLines(golden[e.ID], text) {
					t.Errorf("%s drifted from %s (if intended, regenerate with -update): %s", e.ID, goldenPath, d)
				}
			}
			for name, eng := range extraEngines {
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					other := e.Run(Options{Seed: 1, Quick: true, Engine: eng})
					for _, d := range diffTables(tb, other) {
						t.Errorf("%s under the %s engine: %s", e.ID, name, d)
					}
				})
			}
		})
	}
	if !*update && len(golden) != untimed {
		t.Errorf("%s holds %d tables, the registry has %d without timing columns", goldenPath, len(golden), untimed)
	}
	// Cleanups run once the parallel subtests above have finished.
	t.Cleanup(func() {
		if !*update || t.Failed() {
			return
		}
		var b strings.Builder
		for _, e := range All() {
			if !e.Timed {
				b.WriteString(rendered[e.ID] + "\n")
			}
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Error(err)
		}
	})
}

func TestHelperRandomCurveDomain(t *testing.T) {
	r := newRand(3)
	for trial := 0; trial < 10; trial++ {
		f := randomCurve(r, 10)
		if f.T() > 10 || f.T() < 1 {
			t.Fatalf("curve domain T=%d", f.T())
		}
		if f.Eval(0) < f.Eval(f.T()) {
			t.Fatal("curve not decreasing")
		}
	}
}
