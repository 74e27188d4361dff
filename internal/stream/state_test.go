package stream

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"dpc/internal/metric"
)

// TestLoadStateRejectsMalformed: every state no sketch can be in is an
// error, and the sketch keeps the state it had.
func TestLoadStateRejectsMalformed(t *testing.T) {
	pts := []metric.Point{{0, 0}, {1, 1}, {2, 0}}
	w := []float64{1, 2, 1}
	good := State{Points: pts, Weights: w, Dim: 2, Compressions: 1, N: 9}
	with := func(f func(*State)) State {
		st := good
		st.Points = append([]metric.Point(nil), pts...)
		st.Weights = append([]float64(nil), w...)
		f(&st)
		return st
	}
	bad := map[string]State{
		"short weights":         with(func(st *State) { st.Weights = st.Weights[:2] }),
		"long weights":          with(func(st *State) { st.Weights = append(st.Weights, 1) }),
		"ragged point":          with(func(st *State) { st.Points[1] = metric.Point{1, 1, 1} }),
		"dim mismatch":          with(func(st *State) { st.Dim = 3 }),
		"zero dim":              with(func(st *State) { st.Dim, st.Points = 0, []metric.Point{{}, {}, {}} }),
		"NaN weight":            with(func(st *State) { st.Weights[0] = math.NaN() }),
		"infinite weight":       with(func(st *State) { st.Weights[2] = math.Inf(1) }),
		"negative weight":       with(func(st *State) { st.Weights[1] = -1 }),
		"negative compressions": with(func(st *State) { st.Compressions = -1 }),
		"negative n":            with(func(st *State) { st.N = -1 }),
		"negative dim":          with(func(st *State) { st.Dim, st.Points, st.Weights = -1, nil, nil }),
		"more points than n":    with(func(st *State) { st.N = 2 }),
	}
	s, _ := New(Config{K: 1, T: 1, Chunk: 16})
	if err := s.LoadState(good); err != nil || !reflect.DeepEqual(s.State(), good) {
		t.Fatalf("the well-formed state: %v, exported back as %+v", err, s.State())
	}
	for name, st := range bad {
		if err := s.LoadState(st); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !reflect.DeepEqual(s.State(), good) {
			t.Fatalf("%s: a rejected state changed the sketch", name)
		}
	}
}

// FuzzLoadState: any state LoadState accepts survives a full chunk of Adds
// (so at least one compression of the loaded summary) and the queries
// after it without panicking. coords are little-endian float64s cut into
// points of dim coordinates (the last one may be short), weights likewise
// one per float.
func FuzzLoadState(f *testing.F) {
	f.Add(floats(0, 0, 1, 1, 2, 0), floats(1, 2, 1), uint8(2), int8(2), 1, 9)
	f.Add(floats(0, 0, 1), floats(1, 2), uint8(2), int8(2), 0, 2)
	f.Add(floats(5, math.NaN()), floats(0), uint8(2), int8(2), 0, 1)
	f.Add([]byte{}, []byte{}, uint8(0), int8(0), 0, 0)
	f.Fuzz(func(t *testing.T, coords, weights []byte, dim uint8, stDim int8, compressions, n int) {
		const chunk = 16
		s, err := New(Config{K: 2, T: 1, Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		xs := unfloats(coords)
		d := int(dim%8) + 1
		var st State
		for len(xs) > 0 && len(st.Points) < 4*chunk {
			m := min(d, len(xs))
			st.Points = append(st.Points, metric.Point(xs[:m]))
			xs = xs[m:]
		}
		st.Weights = unfloats(weights)
		st.Dim, st.Compressions, st.N = int(stDim), compressions, n
		if s.LoadState(st) != nil {
			return
		}
		dd := st.Dim
		if dd == 0 {
			dd = 2
		}
		for i := 0; i < chunk; i++ {
			p := make(metric.Point, dd)
			for j := range p {
				p[j] = float64((i*7 + j*3) % 11)
			}
			s.Add(p)
		}
		s.Query(0, -1)
		s.Query(1, 0)
		s.Finish()
	})
}

func floats(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func unfloats(b []byte) []float64 {
	xs := make([]float64, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return xs
}
