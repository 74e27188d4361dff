package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Fatalf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-5); got != runtime.NumCPU() {
		t.Fatalf("Resolve(-5) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 255, 256, 384, 512, 513, 5000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForBlocksSingleBlockRunsInline: a range that fits one block has
// nothing to spread, so no goroutine or channel is made for it — the
// 384-facility coordinator loops sit in exactly that range.
func TestForBlocksSingleBlockRunsInline(t *testing.T) {
	var sum int
	fn := func(lo, hi int) { sum += hi - lo } // unsynchronized: inline or a race
	for _, n := range []int{384, blockSize} {
		if allocs := testing.AllocsPerRun(10, func() { ForBlocks(4, n, fn) }); allocs != 0 {
			t.Fatalf("ForBlocks(4, %d) allocates %v times, want 0", n, allocs)
		}
	}
}

func TestForBlocksContiguousCover(t *testing.T) {
	n := 3000
	covered := make([]int32, n)
	ForBlocks(4, n, func(lo, hi int) {
		if lo%blockSize != 0 {
			t.Errorf("block start %d not aligned", lo)
		}
		if hi-lo > blockSize {
			t.Errorf("block [%d,%d) larger than blockSize", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, h := range covered {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
	}
}

// TestMinIndexMatchesSequential is the determinism contract: the parallel
// reduction must equal the sequential first-wins scan for every worker
// count, including on ties.
func TestMinIndexMatchesSequential(t *testing.T) {
	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64((int64(i)*2654435761 + 12345) % 97) // many ties
	}
	score := func(i int) float64 { return vals[i] }
	seqI, seqV := -1, math.Inf(1)
	for i := 0; i < n; i++ {
		if vals[i] < seqV {
			seqI, seqV = i, vals[i]
		}
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		i, v := MinIndex(workers, n, score)
		if i != seqI || v != seqV {
			t.Fatalf("workers=%d: MinIndex = (%d, %g), sequential = (%d, %g)", workers, i, v, seqI, seqV)
		}
	}
}

func TestMinIndexEmpty(t *testing.T) {
	if i, _ := MinIndex(4, 0, func(int) float64 { return 0 }); i != -1 {
		t.Fatalf("MinIndex on empty range = %d, want -1", i)
	}
}

// TestBlockPartialsWorkerIndependent checks the structural guarantee that
// block boundaries depend only on n.
func TestBlockPartialsWorkerIndependent(t *testing.T) {
	n := 1999
	sum := func(workers int) []float64 {
		nb := numBlocks(n)
		part := make([]float64, nb)
		ForBlocks(workers, n, func(lo, hi int) {
			b := lo / blockSize
			s := 0.0
			for i := lo; i < hi; i++ {
				s += 1.0 / float64(i+1)
			}
			part[b] = s
		})
		return part
	}
	ref := sum(1)
	for _, workers := range []int{2, 4, 9} {
		got := sum(workers)
		for b := range ref {
			if got[b] != ref[b] {
				t.Fatalf("workers=%d: block %d partial %g != %g", workers, b, got[b], ref[b])
			}
		}
	}
}
