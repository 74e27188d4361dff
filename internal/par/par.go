// Package par provides the bounded-parallelism substrate behind the solver
// engines: worker pools over index ranges and deterministic reductions.
//
// The hard invariant of every helper here is that results are bit-identical
// no matter how many workers run. This is achieved structurally rather than
// by synchronization tricks:
//
//   - parallel loops write only to per-index (or per-block) slots, never to
//     shared accumulators, so no floating-point operation is reordered;
//   - argmin reductions compute per-block candidates and then fold
//     them sequentially in block order with strict comparisons, which is
//     exactly equivalent to the sequential first-wins scan;
//   - blocks are contiguous and depend only on n (never on the worker
//     count), so per-block partial results are worker-count independent.
//
// With Workers <= 1 every helper runs inline on the calling goroutine, so
// the sequential path is the parallel path with the pool removed — there is
// no separate code to drift out of sync.
package par

import "runtime"

// Resolve maps a Workers knob value to an effective worker count:
// w > 0 is used as-is; any other value (the zero default) means "one worker
// per CPU" (runtime.NumCPU()).
func Resolve(w int) int {
	if w > 0 {
		return w
	}
	return runtime.NumCPU()
}

// For runs fn(i) for every i in [0, n), spread over at most `workers`
// goroutines. fn must only write to state owned by index i (e.g. out[i]).
// With workers <= 1, or n within a single block, the loop runs inline.
func For(workers, n int, fn func(i int)) {
	ForBlocks(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForBlocks partitions [0, n) into contiguous blocks and runs fn(lo, hi)
// for each, spread over at most `workers` goroutines. Blocks depend only on
// n, so any per-block partial results are worker-count independent.
func ForBlocks(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	nb := numBlocks(n)
	if workers <= 1 || nb == 1 {
		// Inline, but over the same fixed block grid the parallel path
		// uses, so per-block partial results never depend on the pool size.
		// A single block has nothing to spread: spawning a goroutine and
		// two channels to run it is pure overhead.
		for b := 0; b < nb; b++ {
			lo, hi := blockBounds(n, b)
			fn(lo, hi)
		}
		return
	}
	if workers > nb {
		workers = nb
	}
	// Workers pull block indices from a channel; the block grid itself is
	// fixed by n, so which worker computes a block never matters.
	blocks := make(chan int, nb)
	for b := 0; b < nb; b++ {
		blocks <- b
	}
	close(blocks)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for b := range blocks {
				lo, hi := blockBounds(n, b)
				fn(lo, hi)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// BlockSize is the fixed block granularity of ForBlocks and the reductions
// below. It is a function of nothing: block boundaries must not depend on
// the worker count, or per-block floating-point partials would change with
// the pool size. Callers that fold their own per-block partials (e.g. the
// Gonzalez traversal) index blocks as lo/BlockSize.
const BlockSize = 512

// blockSize is the internal alias of BlockSize.
const blockSize = BlockSize

// numBlocks returns the number of blocks covering [0, n).
func numBlocks(n int) int { return (n + blockSize - 1) / blockSize }

// blockBounds returns block b's [lo, hi) range.
func blockBounds(n, b int) (lo, hi int) {
	lo = b * blockSize
	hi = lo + blockSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// MinIndex returns the index i in [0, n) minimizing score(i), breaking ties
// toward the smallest index — exactly the result of the sequential
// "if score < best" scan — computed over at most `workers` goroutines.
// Returns -1 when n <= 0 or every score is +Inf rejected by the caller's
// convention (callers filter on the returned score themselves).
func MinIndex(workers, n int, score func(i int) float64) (int, float64) {
	type cand struct {
		i int
		v float64
	}
	if n <= 0 {
		return -1, 0
	}
	nb := numBlocks(n)
	partial := make([]cand, nb)
	ForBlocks(workers, n, func(lo, hi int) {
		b := lo / blockSize
		best := cand{i: lo, v: score(lo)}
		for i := lo + 1; i < hi; i++ {
			if v := score(i); v < best.v {
				best = cand{i: i, v: v}
			}
		}
		partial[b] = best
	})
	best := partial[0]
	for b := 1; b < nb; b++ {
		if partial[b].v < best.v {
			best = partial[b]
		}
	}
	return best.i, best.v
}
