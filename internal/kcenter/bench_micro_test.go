package kcenter

import (
	"math/rand"
	"testing"

	"dpc/internal/metric"
)

func benchPoints(n int) *metric.Points {
	r := rand.New(rand.NewSource(1))
	pts := make([]metric.Point, n)
	for i := range pts {
		pts[i] = metric.Point{r.Float64() * 100, r.Float64() * 100}
	}
	return metric.NewPoints(pts)
}

// Ablation: Algorithm 2 only needs the first k+t traversal points —
// compare against a full-length traversal.
func BenchmarkGonzalezPrefix(b *testing.B) {
	sp := benchPoints(4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gonzalez(sp, 60, 0) // k + t points
	}
}

func BenchmarkGonzalezFull(b *testing.B) {
	sp := benchPoints(4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gonzalez(sp, 4000, 0)
	}
}

func BenchmarkCharikarPartial(b *testing.B) {
	sp := benchPoints(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partial(sp, nil, 5, 15)
	}
}

// coordinatorInstance builds what Algorithm 2's coordinator solves: a
// seeded Gaussian mixture with 3% far outliers is dealt round-robin to
// `sites` sites of `perSite` points, every site runs Gonzalez to depth
// `depth` (= k + t_i) and ships its precluster centers weighted by their
// integer assignment counts.
func coordinatorInstance(seed int64, sites, perSite, depth int) (*metric.Points, []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := sites * perSite
	shards := make([][]metric.Point, sites)
	for i := 0; i < n; i++ {
		p := metric.Point{rng.NormFloat64(), rng.NormFloat64()}
		if rng.Float64() < 0.03 {
			p[0], p[1] = p[0]*40, p[1]*40
		} else {
			c := float64(rng.Intn(4))
			p[0], p[1] = p[0]+12*c, p[1]+7*c*c
		}
		shards[i%sites] = append(shards[i%sites], p)
	}
	var pts []metric.Point
	var wts []float64
	for _, shard := range shards {
		sp := metric.NewPoints(shard)
		tr := Gonzalez(sp, depth, 0)
		_, counts, _ := tr.AssignPrefix(sp, depth, nil)
		for r, idx := range tr.Order {
			pts = append(pts, shard[idx])
			wts = append(wts, counts[r])
		}
	}
	return metric.NewPoints(pts), wts
}

var partialSink Solution

// BenchmarkPartialCoordinator times the coordinator's (k,t)-center solve at
// the three sizes the repo benchmark and the experiment tables run it:
// fanin-tree's 384 weighted preclusters (32 sites x (k + t_i), k=4, t=128),
// serve-mixed's 60-client center jobs, and a 1000-point unit-weight central
// solve as in internal/bench's E-tables. Each size runs twice: through
// PartialOpt, which allocates its working memory every call, and under
// warm/, in one Scratch reused across calls as a fleet's coordinator reuses
// its own (one Scratch serves all three sizes, the way a coordinator's
// instances vary). A warm/ row solves one instance again and again, so it
// times the probes over a reused ball index, and reports the bytes its
// Scratch holds; warm/clients=384-fractional is the same instance with
// every weight + 0.5, so its probes take the float push loop instead of the
// prefix-count table; warm/clients=384-alternating solves two 384-client
// instances in turn, so every solve rebuilds the index in reused memory.
func BenchmarkPartialCoordinator(b *testing.B) {
	run := func(c metric.Costs, w []float64, k int, t float64, sc *Scratch) func(*testing.B) {
		return func(b *testing.B) {
			sc.Partial(c, w, k, t, Opt{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				partialSink = sc.Partial(c, w, k, t, Opt{})
			}
			if sc != nil {
				b.ReportMetric(float64(sc.bytes()), "scratch-bytes")
			}
		}
	}
	sp, w := coordinatorInstance(1, 32, 128, 12)
	small, sw := coordinatorInstance(2, 4, 160, 15)
	central := benchPoints(1000)
	for _, sc := range []*Scratch{nil, new(Scratch)} {
		prefix := ""
		if sc != nil {
			prefix = "warm/"
		}
		b.Run(prefix+"clients=384", run(sp, w, 4, 128, sc))
		b.Run(prefix+"clients=60", run(small, sw, 3, 20, sc))
		b.Run(prefix+"points=1000", run(central, nil, 5, 50, sc))
	}
	half := make([]float64, len(w))
	for i, x := range w {
		half[i] = x + 0.5
	}
	b.Run("warm/clients=384-fractional", run(sp, half, 4, 128, new(Scratch)))
	other, ow := coordinatorInstance(3, 32, 128, 12)
	b.Run("warm/clients=384-alternating", func(b *testing.B) {
		sc := new(Scratch)
		sc.Partial(other, ow, 4, 128, Opt{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				partialSink = sc.Partial(sp, w, 4, 128, Opt{})
			} else {
				partialSink = sc.Partial(other, ow, 4, 128, Opt{})
			}
		}
		b.ReportMetric(float64(sc.bytes()), "scratch-bytes")
	})
}

func BenchmarkEvalMax(b *testing.B) {
	sp := benchPoints(2000)
	centers := []int{1, 100, 500, 900, 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalMax(sp, nil, centers, 50)
	}
}
