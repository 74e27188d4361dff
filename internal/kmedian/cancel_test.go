package kmedian

import (
	"context"
	"sync/atomic"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

// countingCosts counts oracle calls and can fire a cancel once the count
// crosses a threshold — a deterministic way to cancel "mid-solve" without
// timers.
type countingCosts struct {
	c      metric.Costs
	calls  atomic.Int64
	cancel context.CancelFunc
	after  int64
}

func (cc *countingCosts) Clients() int    { return cc.c.Clients() }
func (cc *countingCosts) Facilities() int { return cc.c.Facilities() }
func (cc *countingCosts) Cost(i, f int) float64 {
	if n := cc.calls.Add(1); cc.cancel != nil && n == cc.after {
		cc.cancel()
	}
	return cc.c.Cost(i, f)
}

func cancelTestPoints(n int) []metric.Point {
	pts := make([]metric.Point, n)
	x := uint64(99)
	for i := range pts {
		x = x*6364136223846793005 + 1442695040888963407
		pts[i] = metric.Point{float64(x % 977), float64((x >> 20) % 977)}
	}
	return pts
}

// TestLocalSearchCancelMidSolve cancels the context after a fixed number
// of oracle calls and asserts the solver stops doing work shortly after,
// instead of finishing all remaining descent rounds and restarts.
func TestLocalSearchCancelMidSolve(t *testing.T) {
	pts := cancelTestPoints(400)
	base := metric.NewPoints(pts)
	opts := Options{Seed: 3, Restarts: 4, SampleFacilities: -1}

	full := &countingCosts{c: base}
	LocalSearch(full, nil, 8, 20, opts)
	fullCalls := full.calls.Load()

	ctx, cancel := context.WithCancel(context.Background())
	cut := &countingCosts{c: base, cancel: cancel, after: fullCalls / 20}
	o := opts
	o.Ctx = ctx
	LocalSearch(cut, nil, 8, 20, o)
	if got := cut.calls.Load(); got > fullCalls/4 {
		t.Fatalf("cancelled solve still made %d oracle calls (full solve: %d); preemption is not cutting work", got, fullCalls)
	}

	// Already-cancelled context: near-zero work.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	o.Ctx = pre
	dead := &countingCosts{c: base}
	LocalSearch(dead, nil, 8, 20, o)
	if got := dead.calls.Load(); got > int64(len(pts)) {
		t.Fatalf("pre-cancelled solve made %d oracle calls", got)
	}
}

// TestJVCancelMidSolve does the same for the Lagrangian engine: cancelling
// mid-binary-search must stop further probes and the in-flight ascent.
func TestJVCancelMidSolve(t *testing.T) {
	pts := cancelTestPoints(130)
	base := metric.NewPoints(pts)
	opts := Options{Seed: 3, Options: engine.Options{Workers: 1}}

	full := &countingCosts{c: base}
	JV(full, nil, 6, 10, 0, opts)
	fullCalls := full.calls.Load()

	ctx, cancel := context.WithCancel(context.Background())
	cut := &countingCosts{c: base, cancel: cancel, after: fullCalls / 20}
	o := opts
	o.Ctx = ctx
	JV(cut, nil, 6, 10, 0, o)
	if got := cut.calls.Load(); got > fullCalls/2 {
		t.Fatalf("cancelled JV still made %d oracle calls (full solve: %d)", got, fullCalls)
	}
}

// TestCancelNeverChangesLiveResults pins the invariant that makes Ctx safe
// to thread everywhere: a context that is never cancelled must leave every
// decision bit-identical to a no-context solve.
func TestCancelNeverChangesLiveResults(t *testing.T) {
	pts := cancelTestPoints(200)
	base := metric.NewPoints(pts)
	for _, algo := range []engine.Algo{engine.LocalSearch, engine.JV} {
		opts := Options{Seed: 7, Options: engine.Options{Algo: algo}}
		plain := Solve(base, nil, 5, 12, opts)
		opts.Ctx = context.Background()
		ctxed := Solve(base, nil, 5, 12, opts)
		if plain.Cost != ctxed.Cost || len(plain.Centers) != len(ctxed.Centers) {
			t.Fatalf("%v: live context changed the solution (%v vs %v)", algo, plain.Cost, ctxed.Cost)
		}
		for i := range plain.Centers {
			if plain.Centers[i] != ctxed.Centers[i] {
				t.Fatalf("%v: center %d differs under a live context", algo, i)
			}
		}
	}
}
