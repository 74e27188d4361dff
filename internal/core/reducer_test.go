package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/gen"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// rawPayload is wire bytes already encoded, as a comm.Payload.
type rawPayload []byte

func (b rawPayload) MarshalBinary() ([]byte, error) { return b, nil }

// poisonWeight wraps a site handler so that its precluster payload carries
// weight w on its first center — what a buggy or hostile site would ship.
func poisonWeight(t *testing.T, h transport.Handler, obj Objective, w float64) transport.Handler {
	return func(round int, in []byte) ([]byte, error) {
		out, err := h(round, in)
		if err != nil || round != 1 {
			return out, err
		}
		parts := [][]byte{out}
		if obj != Center {
			if parts, err = comm.SplitMulti(out); err != nil {
				t.Error(err)
				return out, nil
			}
		}
		var centers comm.WeightedPointsMsg
		if err := centers.UnmarshalBinary(parts[0]); err != nil {
			t.Error(err)
			return out, nil
		}
		centers.W[0] = w
		if obj == Center {
			return comm.Encode(centers)
		}
		return comm.Encode(comm.Multi{Parts: []comm.Payload{centers, rawPayload(parts[1])}})
	}
}

// TestReducerRejectsBadPreclusters: a precluster whose points have another
// dimension than the union's, or whose weights are NaN, infinite or
// negative, fails the run with an error naming the site, for every
// objective. A 3-D site among 2-D ones used to panic the coordinator inside
// metric.SqL2, and the bad weights returned no centers at cost +Inf or 0.
func TestReducerRejectsBadPreclusters(t *testing.T) {
	const sites, bad = 3, 1
	flat := gen.Mixture(gen.MixtureSpec{N: 180, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 11}).Pts
	deep := gen.Mixture(gen.MixtureSpec{N: 60, K: 3, Dim: 3, OutlierFrac: 0.05, Seed: 12}).Pts
	rows := []struct {
		name   string
		dim3   bool
		weight float64
	}{
		{"3-D site", true, 0},
		{"NaN weight", false, math.NaN()},
		{"+Inf weight", false, math.Inf(1)},
		{"-1e9 weight", false, -1e9},
	}
	for _, obj := range []Objective{Median, Means, Center} {
		for _, row := range rows {
			cfg := Config{K: 3, T: 6, Objective: obj}
			handlers := make([]transport.Handler, sites)
			for i := range handlers {
				pts := flat[i*60 : (i+1)*60]
				if i == bad && row.dim3 {
					pts = deep
				}
				h, err := NewSiteHandlerOracle(cfg, i, pts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if i == bad && !row.dim3 {
					h = poisonWeight(t, h, obj, row.weight)
				}
				handlers[i] = h
			}
			tr, err := tree.NewLocal(context.Background(), transport.KindLoopback, handlers, true, tree.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOverCtx(context.Background(), tr, cfg)
			tr.Close()
			if err == nil || !strings.Contains(err.Error(), "precluster from site 1") {
				t.Errorf("%v, %s: got %d centers at cost %g and error %v; want an error naming site %d",
					obj, row.name, len(res.Centers), res.CoordinatorCost, err, bad)
			}
		}
	}
}

// FuzzCoreReducerAdd feeds arbitrary bytes, as one site's precluster
// payload, to the coordinator half of every objective and variant: Add must
// return an error or succeed, never panic, and a payload it accepts must
// solve without a panic at a finite cost.
//
//	go test ./internal/core -run xxx -fuzz FuzzCoreReducerAdd -fuzztime 60s
func FuzzCoreReducerAdd(f *testing.F) {
	pts := []metric.Point{{0, 0}, {1, 0}, {0, 1}}
	for _, w := range []float64{1, math.NaN(), math.Inf(1), -1e9} {
		centers := comm.WeightedPointsMsg{Pts: pts, W: []float64{w, 2, 3}}
		for _, p := range []comm.Payload{centers, comm.Multi{Parts: []comm.Payload{centers, comm.PointsMsg{Pts: pts[:1]}}}} {
			b, err := comm.Encode(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, obj := range []Objective{Median, Means, Center} {
			for _, v := range []Variant{TwoRound, TwoRoundNoOutliers, OneRound} {
				r := newReducer(Config{K: 2, T: 1, Objective: obj, Variant: v}.withDefaults())
				if r.Add(b) != nil {
					continue
				}
				var res protocol.Result
				r.Solve(&res)
				if math.IsNaN(res.CoordinatorCost) || math.IsInf(res.CoordinatorCost, 0) {
					t.Fatalf("%v %v: accepted payload solved at cost %g", obj, v, res.CoordinatorCost)
				}
			}
		}
	})
}
