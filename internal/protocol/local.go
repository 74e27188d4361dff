package protocol

import (
	"context"
	"fmt"

	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// RunLocal is the in-process fleet scaffold every protocol shares: it
// rejects an instance no protocol can run (no sites, an empty site, a
// budget covering all the data), builds site i's handler with site(i),
// stands the fleet up on the given wire backend and coordinator fan-in
// (tree.NewLocal), runs the coordinator half over it and tears it down. Of
// p it reads Name and T only.
func RunLocal[S any](ctx context.Context, p Params, kind transport.Kind, topo tree.Spec, shards [][]S,
	site func(i int) (transport.Handler, error), run func(transport.Transport) (Result, error)) (Result, error) {
	if len(shards) == 0 {
		return Result{}, fmt.Errorf("%s: no sites", p.Name)
	}
	total := 0
	for i, shard := range shards {
		if len(shard) == 0 {
			return Result{}, fmt.Errorf("%s: site %d is empty", p.Name, i)
		}
		total += len(shard)
	}
	if p.T >= total {
		return Result{}, fmt.Errorf("%s: T = %d out of range [0, %d)", p.Name, p.T, total)
	}
	handlers := make([]transport.Handler, len(shards))
	for i := range shards {
		h, err := site(i)
		if err != nil {
			return Result{}, err
		}
		handlers[i] = h
	}
	tr, err := tree.NewLocal(ctx, kind, handlers, true, topo)
	if err != nil {
		return Result{}, err
	}
	defer tr.Close()
	return run(tr)
}

// BudgetSolver runs one site's (K, q)-median solves over a fixed cost
// oracle, one per budget q, and remembers them: the solution a hull vertex
// was sampled from is the one the site preclusters with when the allocation
// lands on that vertex.
type BudgetSolver struct {
	Costs metric.Costs
	K     int
	Opts  kmedian.Options // Opts.Algo picks the engine

	sols map[int]kmedian.Solution
}

// Solve returns (computing it on first use) the solution with budget q.
func (s *BudgetSolver) Solve(q int) kmedian.Solution {
	if sol, ok := s.sols[q]; ok {
		return sol
	}
	if s.sols == nil {
		s.sols = make(map[int]kmedian.Solution)
	}
	sol := kmedian.Solve(s.Costs, nil, s.K, float64(q), s.Opts)
	s.sols[q] = sol
	return sol
}

// Curve solves at every budget of grid and returns the costs — a site's
// local cost curve (Lines 1-4 of Algorithm 1). Each solve is warm-started
// from the previous budget's centers and runs in the one local-search
// scratch of this grid, so the next budget reuses the previous one's buffers
// instead of allocating them again; the memoized solutions share nothing
// with it, and it is released with the grid — a site keeps no solver memory
// while it waits for its budget. Solves outside Curve start cold and
// allocate their own.
func (s *BudgetSolver) Curve(grid []int) []float64 {
	costs := make([]float64, len(grid))
	s.Opts.Warm, s.Opts.Scratch = nil, new(kmedian.Scratch)
	for i, q := range grid {
		sol := s.Solve(q)
		s.Opts.Warm = sol.Centers
		costs[i] = sol.Cost
	}
	s.Opts.Warm, s.Opts.Scratch = nil, nil
	return costs
}
