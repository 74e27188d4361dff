package central

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
)

var update = flag.Bool("update", false, "rewrite testdata/central_seed1.golden from this run")

const goldenPath = "testdata/central_seed1.golden"

// goldenCase is one row of the central golden.
type goldenCase struct {
	n, k, t, dim, levels, minChunk int
	obj                            core.Objective
}

func (c goldenCase) String() string {
	return fmt.Sprintf("%v n=%d k=%d t=%d dim=%d levels=%d minchunk=%d", c.obj, c.n, c.k, c.t, c.dim, c.levels, c.minChunk)
}

// goldenCases covers levels 0-3 under both objectives in dimensions 2, 4
// and 16, plus two rows where a chunk is itself large enough to recurse
// (n = 3000 with MinChunk 16: a level-2 chunk of ~31 points runs level 1
// again at its small budgets).
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, obj := range []core.Objective{core.Median, core.Means} {
		for _, dim := range []int{2, 4, 16} {
			for levels := 0; levels <= 3; levels++ {
				cs = append(cs, goldenCase{n: 400, k: 3, t: 12, dim: dim, levels: levels, obj: obj})
			}
		}
	}
	for _, levels := range []int{2, 3} {
		cs = append(cs, goldenCase{n: 3000, k: 2, t: 6, dim: 2, levels: levels, minChunk: 16, obj: core.Median})
	}
	return cs
}

// TestCentralGolden pins what the Section 3.1 solver returns at every
// simulation depth: per row the center coordinates and the evaluated cost
// as float bit patterns, and the top-level chunk count, must equal
// testdata/central_seed1.golden. Compared on amd64 only, like the
// repository's other goldens: elsewhere a fused multiply-add may move a low
// bit of a cost, and the chosen centers follow from comparisons of costs. A
// change that means to move a value regenerates the file with
// go test ./internal/central -run TestCentralGolden -update.
func TestCentralGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		in := gen.Mixture(gen.MixtureSpec{N: c.n, K: c.k, Dim: c.dim, OutlierFrac: 0.05, Seed: 1})
		sol := solveOK(t, in.Pts, Config{K: c.k, T: c.t, Levels: c.levels, Objective: c.obj,
			MinChunk: c.minChunk, Opts: kmedian.Options{Seed: 1}})
		if len(sol.Centers) == 0 {
			t.Fatalf("%v: no centers", c)
		}
		fmt.Fprintf(&b, "== %v\n", c)
		for i, p := range sol.Centers {
			cells := make([]string, len(p))
			for d, x := range p {
				cells[d] = fmt.Sprintf("%016x", math.Float64bits(x))
			}
			fmt.Fprintf(&b, "center %d: %s\n", i, strings.Join(cells, " "))
		}
		fmt.Fprintf(&b, "cost: %016x(%g)  chunks: %d\n\n", math.Float64bits(sol.Cost), sol.Cost, sol.TopChunks)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/central -run TestCentralGolden -update)", err)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	want := strings.Split(string(raw), "\n\n")
	rows := strings.Split(got, "\n\n")
	if len(rows) != len(want) {
		t.Fatalf("%s holds %d rows, this run produced %d", goldenPath, len(want)-1, len(rows)-1)
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("drifted from %s (if intended, regenerate with -update):\n got:\n%s\nwant:\n%s", goldenPath, rows[i], want[i])
		}
	}
}
