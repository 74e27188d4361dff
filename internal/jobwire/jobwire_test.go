package jobwire

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Job{
		{Kind: KindPoint, Core: core.Config{K: 5, T: 40, Objective: core.Center,
			LocalOpts: kmedian.Options{Seed: 9}, Options: engine.Options{Workers: 3}}},
		{Kind: KindUncertain, Obj: uncertain.CenterPP,
			Unc: uncertain.Config{K: 2, T: 7, Eps: 0.5, LocalOpts: kmedian.Options{Seed: -4}}},
		{Kind: KindCenterG, CenterG: uncertain.CenterGConfig{K: 3, T: 11, TauBase: 4, OneRound: true}},
	}
	for _, in := range cases {
		b, err := Encode(in)
		if err != nil {
			t.Fatalf("%v: %v", in.Kind, err)
		}
		out, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", in.Kind, err)
		}
		if out.Kind != in.Kind {
			t.Fatalf("kind %v round-tripped to %v", in.Kind, out.Kind)
		}
		switch in.Kind {
		case KindPoint:
			// The point payload reuses the handshake encoding, which
			// re-applies defaults; compare against that canonical form.
			want, err := core.DecodeConfig(core.EncodeConfig(in.Core))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Core, want) {
				t.Fatalf("core config %+v, want %+v", out.Core, want)
			}
		case KindUncertain:
			if out.Obj != in.Obj || !reflect.DeepEqual(out.Unc, in.Unc) {
				t.Fatalf("uncertain job %+v/%+v, want %+v/%+v", out.Obj, out.Unc, in.Obj, in.Unc)
			}
		case KindCenterG:
			if !reflect.DeepEqual(out.CenterG, in.CenterG) {
				t.Fatalf("center-g config %+v, want %+v", out.CenterG, in.CenterG)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// A config record without the envelope is not a job frame.
	bare := core.EncodeConfig(core.Config{K: 4, T: 9})
	for _, b := range [][]byte{nil, {}, {magic}, {magic, 99, 1, 2}, {magic, byte(KindUncertain), '{'}, {7, 7, 7}, bare} {
		if _, err := Decode(b); err == nil {
			t.Fatalf("decoded garbage %v", b)
		}
	}
}

// TestDecodeFramesWithRetiredSequentialKey: the two uncertain configs cross
// as JSON and used to carry a Sequential field no code ever set. These are
// the frame bodies the tree before its removal encoded for the round-trip
// cases above; a coordinator of that vintage still arms today's sites with
// the same job.
func TestDecodeFramesWithRetiredSequentialKey(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		body string
		want Job
	}{
		{KindUncertain,
			`{"obj":2,"cfg":{"K":2,"T":7,"Variant":0,"Eps":0.5,"Rho":0,"HullBase":0,"Engine":0,"LocalOpts":{"Seed":-4,"MaxIters":0,"SampleFacilities":0,"Restarts":0,"Warm":null},"Candidates":0,"Sequential":false,"Transport":"","topology":"star"}}`,
			Job{Kind: KindUncertain, Obj: uncertain.CenterPP,
				Unc: uncertain.Config{K: 2, T: 7, Eps: 0.5, LocalOpts: kmedian.Options{Seed: -4}}}},
		{KindCenterG,
			`{"K":3,"T":11,"Eps":0,"Rho":0,"HullBase":0,"TauBase":4,"MaxFacilities":0,"Engine":0,"LocalOpts":{"Seed":0,"MaxIters":0,"SampleFacilities":0,"Restarts":0,"Warm":null},"Sequential":false,"OneRound":true,"Transport":"","topology":"star"}`,
			Job{Kind: KindCenterG, CenterG: uncertain.CenterGConfig{K: 3, T: 11, TauBase: 4, OneRound: true}}},
	} {
		got, err := Decode(append([]byte{magic, byte(tc.kind)}, tc.body...))
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v frame with the retired key decoded to %+v, want %+v", tc.kind, got, tc.want)
		}
		// Today's encoding is the same body without the key.
		now, err := Encode(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Replace(tc.body, `"Sequential":false,`, "", 1); string(now[2:]) != want {
			t.Errorf("%v frame body is now\n%s\nwant the old body less the key:\n%s", tc.kind, now[2:], want)
		}
	}
}

// TestPersistentSiteCachesLowDimensionShard: the memo a persistent site
// (ServeJobs) keeps over its shard is not subject to metric.Memoizes — a
// dim-2 shard still gets one, every job's handler reads it, and only the
// size cap declines.
func TestPersistentSiteCachesLowDimensionShard(t *testing.T) {
	pts := gen.Mixture(gen.MixtureSpec{N: 240, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 5}).Pts
	if metric.Memoizes(metric.NewPoints(pts)) {
		t.Fatal("fixture: metric.Memoizes accepts the dim-2 shard; the test would prove nothing")
	}
	if persistentCache(nil) != nil || persistentCache(make([]metric.Point, metric.MaxCachePoints+1)) != nil {
		t.Fatal("persistentCache built a memo over an empty or oversized shard")
	}
	shards := Data{Pts: pts}.Split(2).Pts
	job := Job{Kind: KindPoint, Core: core.Config{K: 3, T: 12, Objective: core.Center}}
	want, err := job.RunLocal(context.Background(), Shards{Pts: shards})
	if err != nil {
		t.Fatal(err)
	}
	var st metric.CacheStats
	handlers := make([]transport.Handler, len(shards))
	for i, shard := range shards {
		dc := persistentCache(shard)
		if dc == nil {
			t.Fatalf("no persistent cache over dim-2 shard %d (%d points)", i, len(shard))
		}
		dc.Counters = &st
		if handlers[i], err = job.SiteHandler(SiteData{Site: i, Pts: shard, Cache: dc}); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := tree.NewLocal(context.Background(), transport.KindLoopback, handlers, true, tree.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got, err := job.RunOver(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := st.Snapshot(); hits == 0 || misses == 0 {
		t.Fatalf("the site cache saw %d hits and %d misses; the handlers did not read it", hits, misses)
	}
	if !reflect.DeepEqual(got.Centers, want.Centers) {
		t.Fatal("cached persistent sites and a one-shot run disagree")
	}
}
