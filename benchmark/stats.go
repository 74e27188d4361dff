package main

import (
	"math"
	"slices"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and whether at least minBeyond samples lie beyond it — the rule under
// which a tail percentile may be reported as resolved. NaN when empty.
func percentile(xs []float64, p float64) (v float64, resolved bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailWindow is the window windowedTail cuts job times into: 14 jobs all
// stay under their 95th percentile with probability 0.95^14 = 0.49.
const tailWindow = 14

// windowedTail estimates the 95th percentile of job times so that a burst
// of slow jobs does not move it. Each round's times (in op order) are cut
// into windows of tailWindow consecutive jobs — the jobs left over at a
// round's end are dropped; a round shorter than a window is one window —
// and the result is the median of the windows' maxima. When jobs are alike,
// half of all windows stay under the 95th percentile, so this is it; when a
// neighbour slows a stretch of the run, the windows it hits land in the
// upper half and the median stays with the others, where the plain
// percentile of all jobs moves as soon as a twentieth of them are hit. NaN
// without samples.
func windowedTail(rounds [][]float64) float64 {
	var maxima []float64
	for _, xs := range rounds {
		if n := len(xs); n > 0 && n < tailWindow {
			maxima = append(maxima, slices.Max(xs))
		}
		for ; len(xs) >= tailWindow; xs = xs[tailWindow:] {
			maxima = append(maxima, slices.Max(xs[:tailWindow]))
		}
	}
	return median(maxima)
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so spreads computed here match the driver's. Needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the quartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / m)
}
