package stream

import (
	"math"
	"math/bits"
	"testing"

	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Config{K: 1, T: -1}); err == nil {
		t.Error("negative T accepted")
	}
	if _, err := New(Config{K: 100, T: 100, Chunk: 10}); err == nil {
		t.Error("tiny chunk accepted")
	}
	if _, err := New(Config{K: 2, T: 4}); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

// TestNewRejectsOverflowingShape: a K or T whose default chunk 4(2K+T)
// wraps an int used to pass validation with a wrapped chunk, so the
// sketch kept every point and ran a full solve on every Add. Such shapes
// are errors, with or without an explicit chunk; the largest shape that
// fits still builds.
func TestNewRejectsOverflowingShape(t *testing.T) {
	// 1<<61 and 1<<62 on 64-bit ints; the same place below MaxInt on 32-bit.
	const k61, t62 = 1 << (bits.UintSize - 3), 1 << (bits.UintSize - 2)
	for _, c := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"K = 1<<61", Config{K: k61}, false},
		{"T = 1<<62", Config{K: 1, T: t62}, false},
		{"K = MaxInt", Config{K: math.MaxInt}, false},
		{"T = MaxInt", Config{K: 1, T: math.MaxInt}, false},
		{"K = 1<<61 with a chunk", Config{K: k61, Chunk: math.MaxInt}, false},
		{"largest K", Config{K: math.MaxInt / 8}, true},
		{"largest T", Config{K: 1, T: math.MaxInt/4 - 2}, true},
	} {
		s, err := New(c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
			continue
		}
		if c.ok {
			if ch := s.Config().Chunk; ch < 2*(2*c.cfg.K+c.cfg.T) {
				t.Errorf("%s: chunk %d below 2(2k+t)", c.name, ch)
			}
		}
	}
}

func TestSketchMemoryBound(t *testing.T) {
	s, err := New(Config{K: 3, T: 10, Chunk: 128})
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Mixture(gen.MixtureSpec{N: 5000, K: 3, OutlierFrac: 0.02, Seed: 1})
	maxSize := 0
	for _, p := range in.Pts {
		s.Add(p)
		if s.Size() > maxSize {
			maxSize = s.Size()
		}
	}
	if maxSize > 128 {
		t.Fatalf("buffer exceeded chunk: %d", maxSize)
	}
	if s.N() != 5000 {
		t.Fatalf("consumed %d points", s.N())
	}
	if s.Compressions() == 0 {
		t.Fatal("no compressions on a 5000-point stream with chunk 128")
	}
}

func TestSketchQualityVsBatch(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 3000, K: 4, OutlierFrac: 0.04, Seed: 2})
	k, tt := 4, 120
	s, err := New(Config{K: k, T: tt, Chunk: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in.Pts {
		s.Add(p)
	}
	res := s.Finish()
	if len(res.Centers) == 0 || len(res.Centers) > k {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	streamCost := core.Evaluate(in.Pts, res.Centers, float64(tt), core.Median)
	batch := kmedian.LocalSearch(in.Points(), nil, k, float64(tt), kmedian.Options{Seed: 3, Restarts: 3})
	if batch.Cost > 0 && streamCost > 6*batch.Cost {
		t.Fatalf("stream cost %g vs batch %g (ratio %.2f)", streamCost, batch.Cost, streamCost/batch.Cost)
	}
	t.Logf("stream/batch cost ratio: %.3f after %d compressions", streamCost/batch.Cost, res.Compressions)
}

func TestSketchOutliersSurviveCompression(t *testing.T) {
	// Far outliers fed early must still be droppable at Finish: the sketch
	// carries them as weighted points instead of merging them into
	// clusters (Remark 1 discipline).
	s, err := New(Config{K: 2, T: 3, Chunk: 64})
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Mixture(gen.MixtureSpec{N: 800, K: 2, OutlierFrac: 0, Seed: 4, Box: 50})
	// Three extreme outliers first.
	s.Add([]float64{1e6, 1e6})
	s.Add([]float64{-1e6, 2e6})
	s.Add([]float64{3e6, -1e6})
	for _, p := range in.Pts {
		s.Add(p)
	}
	res := s.Finish()
	cost := core.Evaluate(append(in.Pts, []float64{1e6, 1e6}, []float64{-1e6, 2e6}, []float64{3e6, -1e6}),
		res.Centers, 3, core.Median)
	// If an outlier had been merged into a cluster centroid the cost would
	// be astronomically large.
	if cost > 1e5 {
		t.Fatalf("outliers polluted the sketch: cost %g", cost)
	}
}

func TestSketchWeightedAndMeans(t *testing.T) {
	s, err := New(Config{K: 2, T: 2, Chunk: 64, Means: true})
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Mixture(gen.MixtureSpec{N: 500, K: 2, OutlierFrac: 0.01, Seed: 5})
	for i, p := range in.Pts {
		if i%2 == 0 {
			s.AddWeighted(p, 2)
		} else {
			s.Add(p)
		}
	}
	res := s.Finish()
	if len(res.Centers) == 0 {
		t.Fatal("no centers")
	}
	if res.SummaryCost < 0 {
		t.Fatal("negative summary cost")
	}
}

func TestSketchDeterministic(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 1000, K: 3, OutlierFrac: 0.03, Seed: 6})
	run := func() Result {
		s, err := New(Config{K: 3, T: 30, Chunk: 256, Opts: kmedian.Options{Seed: 11}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range in.Pts {
			s.Add(p)
		}
		return s.Finish()
	}
	a, b := run(), run()
	if a.SummaryCost != b.SummaryCost || len(a.Centers) != len(b.Centers) {
		t.Fatal("sketch not deterministic")
	}
	for i := range a.Centers {
		if !a.Centers[i].Equal(b.Centers[i]) {
			t.Fatal("centers differ")
		}
	}
}

func TestQueryMatchesFinishAndPreservesSketch(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 2000, K: 3, OutlierFrac: 0.03, Seed: 5})
	s, err := New(Config{K: 3, T: 60, Chunk: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in.Pts {
		s.Add(p)
	}
	sizeBefore, compBefore := s.Size(), s.Compressions()

	fin := s.Finish()
	q := s.Query(3, 60)
	if len(fin.Centers) != len(q.Centers) {
		t.Fatalf("Finish returned %d centers, Query %d", len(fin.Centers), len(q.Centers))
	}
	for i := range fin.Centers {
		if !fin.Centers[i].Equal(q.Centers[i]) {
			t.Fatalf("center %d differs between Finish and Query(K, T)", i)
		}
	}
	if fin.SummaryCost != q.SummaryCost {
		t.Fatalf("SummaryCost differs: %v vs %v", fin.SummaryCost, q.SummaryCost)
	}
	if s.Size() != sizeBefore || s.Compressions() != compBefore {
		t.Fatalf("query mutated the sketch: size %d->%d, compressions %d->%d",
			sizeBefore, s.Size(), compBefore, s.Compressions())
	}
}

func TestQueryDifferentShapes(t *testing.T) {
	in := gen.Mixture(gen.MixtureSpec{N: 1500, K: 4, OutlierFrac: 0.02, Seed: 9})
	s, err := New(Config{K: 4, T: 50, Chunk: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in.Pts {
		s.Add(p)
	}
	// One ingest pass answers many query shapes; smaller k must cost more
	// (fewer centers, same summary), and results stay deterministic.
	c4 := s.Query(4, 50)
	c2 := s.Query(2, 50)
	if len(c4.Centers) != 4 || len(c2.Centers) != 2 {
		t.Fatalf("got %d and %d centers, want 4 and 2", len(c4.Centers), len(c2.Centers))
	}
	if c2.SummaryCost < c4.SummaryCost {
		t.Fatalf("k=2 cost %v beats k=4 cost %v", c2.SummaryCost, c4.SummaryCost)
	}
	again := s.Query(2, 50)
	if again.SummaryCost != c2.SummaryCost {
		t.Fatalf("repeated query drifted: %v vs %v", again.SummaryCost, c2.SummaryCost)
	}
	// Zero/negative arguments fall back to the configured shape.
	def := s.Query(0, -1)
	if len(def.Centers) != len(c4.Centers) {
		t.Fatalf("Query(0,-1) returned %d centers, want %d", len(def.Centers), len(c4.Centers))
	}
}

func TestSummaryIsACopy(t *testing.T) {
	s, err := New(Config{K: 2, T: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Mixture(gen.MixtureSpec{N: 100, K: 2, Seed: 3})
	for _, p := range in.Pts {
		s.Add(p)
	}
	pts, w := s.Summary()
	if len(pts) != s.Size() || len(w) != s.Size() {
		t.Fatalf("summary has %d/%d entries, sketch holds %d", len(pts), len(w), s.Size())
	}
	before := s.Query(2, 4)
	for i := range pts {
		pts[i][0] = 1e12 // scribble on the copy
		w[i] = 0
	}
	after := s.Query(2, 4)
	if before.SummaryCost != after.SummaryCost {
		t.Fatalf("mutating Summary() output changed the sketch: %v vs %v", before.SummaryCost, after.SummaryCost)
	}
}
