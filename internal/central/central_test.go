package central

import (
	"context"
	"errors"
	"math"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/exact"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
)

// solveOK is PartialMedian under a live context, failing t on an error.
func solveOK(t *testing.T, pts []metric.Point, cfg Config) Solution {
	t.Helper()
	sol, err := PartialMedian(context.Background(), pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestCancelledContext: a cancelled context fails the solve at every depth
// with ctx.Err(), never a truncated answer.
func TestCancelledContext(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 400, K: 3, OutlierFrac: 0.05, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for levels := 0; levels <= 2; levels++ {
		if _, err := PartialMedian(ctx, in.Pts, Config{K: 3, T: 12, Levels: levels}); !errors.Is(err, context.Canceled) {
			t.Errorf("levels=%d: %v, want context.Canceled", levels, err)
		}
	}
}

func TestRuntimeExponent(t *testing.T) {
	cases := []struct {
		level int
		want  float64
	}{
		{0, 2}, {1, 4.0 / 3}, {2, 8.0 / 7}, {3, 16.0 / 15},
	}
	for _, c := range cases {
		if got := runtimeExponent(c.level); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("exponent(%d) = %g, want %g", c.level, got, c.want)
		}
	}
}

func TestChunkCount(t *testing.T) {
	// Level 1: s = n^{2/3}.
	if s := chunkCount(1000, 1); s < 90 || s > 110 {
		t.Fatalf("chunkCount(1000, 1) = %d, want ~100", s)
	}
	// Level 2: s = n^{(4/3)/(7/3)} = n^{4/7} ~ 52 for n=1000.
	if s := chunkCount(1000, 2); s < 45 || s > 60 {
		t.Fatalf("chunkCount(1000, 2) = %d, want ~52", s)
	}
	// Bounds.
	if s := chunkCount(4, 1); s != 2 {
		t.Fatalf("chunkCount(4,1) = %d", s)
	}
}

func TestDirectSolveQuality(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 14, K: 2, Dim: 2, OutlierFrac: 0.1, Seed: 1, Box: 30})
	sol := solveOK(t, in.Pts, Config{K: 2, T: 1, Levels: 0, Eps: 1})
	opt := exact.Solve(in.Points(), nil, 2, 1, exact.Sum)
	if opt.Cost > 0 && sol.Cost > 12*opt.Cost {
		t.Fatalf("direct: %g vs exact %g", sol.Cost, opt.Cost)
	}
	if sol.TopChunks != 0 {
		t.Fatalf("direct solve reported %d chunks", sol.TopChunks)
	}
}

// TestUnionRejectsBadSummaries: a level's coordinator admits each chunk's
// summary through protocol.Union, as every other reducer does, so a NaN
// coordinate or a point of another dimension is an error and leaves the
// union as it was.
func TestUnionRejectsBadSummaries(t *testing.T) {
	enc := func(pts ...metric.Point) []byte {
		w := make([]float64, len(pts))
		for i := range w {
			w[i] = 1
		}
		b, err := comm.WeightedPointsMsg{Pts: pts, W: w}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, obj := range []core.Objective{core.Median, core.Means} {
		u := &union{k: 1, cfg: Config{Objective: obj}, admit: protocol.Union{Squared: obj == core.Means}}
		if err := u.Add(enc(metric.Point{0, 0}, metric.Point{1, 1})); err != nil {
			t.Fatalf("%v: a good summary: %v", obj, err)
		}
		for name, b := range map[string][]byte{
			"NaN coordinate": enc(metric.Point{math.NaN(), 0}),
			"3-D point":      enc(metric.Point{0, 0, 0}),
		} {
			if err := u.Add(b); err == nil {
				t.Errorf("%v, %s: admitted", obj, name)
			}
		}
		if len(u.pts) != 2 || len(u.w) != 2 {
			t.Errorf("%v: union holds %d points and %d weights after rejections, want 2", obj, len(u.pts), len(u.w))
		}
	}
}

func TestSimulatedLevelsStayReasonable(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 800, K: 4, Dim: 2, OutlierFrac: 0.05, Seed: 2})
	direct := solveOK(t, in.Pts, Config{K: 4, T: 40, Levels: 0})
	if direct.Cost <= 0 {
		t.Fatal("direct cost zero?")
	}
	for _, levels := range []int{1, 2} {
		sim := solveOK(t, in.Pts, Config{K: 4, T: 40, Levels: levels})
		if len(sim.Centers) == 0 || len(sim.Centers) > 4 {
			t.Fatalf("levels=%d: %d centers", levels, len(sim.Centers))
		}
		if levels == 1 && sim.TopChunks < 50 {
			t.Fatalf("levels=1: chunks = %d, want ~n^(2/3)", sim.TopChunks)
		}
		ratio := sim.Cost / direct.Cost
		if ratio > 6 {
			t.Fatalf("levels=%d: cost ratio vs direct %.2f (%g vs %g)",
				levels, ratio, sim.Cost, direct.Cost)
		}
		t.Logf("levels=%d: cost ratio %.3f, chunks %d, elapsed %v",
			levels, ratio, sim.TopChunks, sim.Elapsed)
	}
}

func TestSimulatedMeans(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 400, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 3})
	direct := solveOK(t, in.Pts, Config{K: 3, T: 20, Levels: 0, Objective: core.Means})
	sim := solveOK(t, in.Pts, Config{K: 3, T: 20, Levels: 1, Objective: core.Means})
	if direct.Cost > 0 && sim.Cost > 10*direct.Cost {
		t.Fatalf("means simulation ratio %.2f", sim.Cost/direct.Cost)
	}
}

// The point of Theorem 3.10: simulated levels scale better. We measure
// work growth between two sizes and check the level-1 growth factor is
// distinctly smaller than the level-0 one. (Kept modest so the test stays
// fast; the full scaling curve is a benchmark.)
func TestSimulationReducesGrowthRate(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement")
	}
	timeFor := func(n, levels int) float64 {
		in := gen.Mixture(gen.MixtureSpec{N: n, K: 3, Dim: 2, OutlierFrac: 0.03, Seed: 4})
		// Leave SampleFacilities at the package default (-1): the direct
		// engine must be genuinely quadratic for the claim to be testable.
		// Pin the reference engine: the claim under test is the asymptotic
		// growth of the *algorithm*, and the fast engine's distance-cache
		// size threshold (cached at n1, uncached at n2) would distort the
		// measured ratios — especially under -race, which instruments the
		// cache's atomics.
		opts := kmedian.Options{MaxIters: 10, Options: engine.Options{Reference: true}}
		sol := solveOK(t, in.Pts, Config{K: 3, T: n / 50, Levels: levels, Opts: opts})
		return sol.Elapsed.Seconds()
	}
	// Warm up and measure.
	n1, n2 := 1500, 6000
	d1, d2 := timeFor(n1, 0), timeFor(n2, 0)
	s1, s2 := timeFor(n1, 1), timeFor(n2, 1)
	growthDirect := d2 / d1
	growthSim := s2 / s1
	t.Logf("direct: %.3fs -> %.3fs (x%.2f); simulated: %.3fs -> %.3fs (x%.2f)",
		d1, d2, growthDirect, s1, s2, growthSim)
	if growthSim > growthDirect*1.2 {
		t.Fatalf("simulation grew faster than direct: x%.2f vs x%.2f", growthSim, growthDirect)
	}
}
