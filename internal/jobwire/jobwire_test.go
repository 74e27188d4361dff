package jobwire

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/geom"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

// TestEncodeDecodeRoundTrip: a frame carries every field of its kind's
// configuration exactly, except the coordinator-local Transport and
// Topology, which it drops.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	tree4 := tree.Spec{Tree: true, Branch: 4}
	cases := []Job{
		{Kind: KindPoint, Core: core.Config{K: 5, T: 40, Objective: core.Center, Variant: core.TwoRoundNoOutliers,
			Eps: 0.5, Rho: 1.25, Delta: 0.125, HullBase: 3,
			LocalOpts: kmedian.Options{Seed: -9, MaxIters: 17, SampleFacilities: -1, Restarts: 2,
				Options: engine.Options{Algo: engine.JV, Workers: 3}},
			Topology: tree4}},
		{Kind: KindUncertain, Obj: uncertain.CenterPP,
			Unc: uncertain.Config{K: 2, T: 7, Eps: 0.5, LocalOpts: kmedian.Options{Seed: -4,
				Options: engine.Options{Algo: engine.LocalSearch, Reference: true}}, Topology: tree4}},
		{Kind: KindUncertain, Obj: uncertain.CenterG,
			Unc: uncertain.Config{K: 3, T: 11, TauBase: 4, Variant: uncertain.OneRoundShipDists, Topology: tree4}},
	}
	for _, in := range cases {
		b, err := Encode(in.OnTransport(transport.KindTCP))
		if err != nil {
			t.Fatalf("%v: %v", in.Kind, err)
		}
		out, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", in.Kind, err)
		}
		want := in
		want.Core.Topology, want.Unc.Topology = tree.Spec{}, tree.Spec{}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("%v job round-tripped to\n%+v\nwant\n%+v", in.Kind, out, want)
		}
	}
}

// binaryPointFrame is a point job frame in the retired binary config record
// (version 4, 96 bytes behind the envelope) — the golden median/2round job
// as a coordinator of the previous frame version sent it.
const binaryPointFrame = "\xdc\x01\x04\x03\x00\x00\x00\x00\x00\x00\x00(\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\xd0?\x00\x00\x00\x00\x00\x00\x00@\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"

func TestDecodeRejectsGarbage(t *testing.T) {
	// A config without the envelope is not a job frame, and the binary point
	// record of the previous frame version is not JSON.
	for _, b := range [][]byte{nil, {}, {magic}, {magic, 99, 1, 2}, {magic, byte(KindUncertain), '{'}, {7, 7, 7},
		[]byte(`{"K":4,"T":9}`), []byte(binaryPointFrame), append([]byte{magic, byte(KindPoint)}, `{"K":4,"T":9}x`...)} {
		if _, err := Decode(b); err == nil {
			t.Fatalf("decoded garbage %q", b)
		}
	}
}

// TestServeJobsRejectsOtherWelcome: a site refuses a coordinator whose
// welcome is the marker of the previous job frame layout, with an error
// naming both markers, instead of decoding frames it may misread.
func TestServeJobsRejectsOtherWelcome(t *testing.T) {
	const old = "dpc-jobs/3"
	l, err := transport.Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		sc, err := transport.Dial(l.Addr().String(), 0, 5*time.Second)
		if err != nil {
			served <- err
			return
		}
		defer sc.Close()
		served <- ServeJobs(sc, fuzzShard, nil)
	}()
	coord, err := l.Accept(1, []byte(old))
	if err != nil {
		t.Fatal(err)
	}
	coord.Close() // a site that took the welcome sees the connection end instead
	if err := <-served; err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), transport.JobsHello) {
		t.Fatalf("ServeJobs under a %q welcome returned %v, want an error naming it and %q", old, err, transport.JobsHello)
	}
}

// fuzzShard is the fixed data FuzzDecodeJob builds an accepted job's site
// half over: a point shard, and a node shard over a small ground set.
var fuzzShard = SiteData{Pts: []metric.Point{{0}}, G: &uncertain.Ground{Pts: []metric.Point{{0}, {1}, {3}}},
	Nodes: []uncertain.Node{{Support: []int{0, 1}, Prob: []float64{0.5, 0.5}}, {Support: []int{2}, Prob: []float64{1}}}}

// FuzzDecodeJob feeds arbitrary bytes to the job frame decoder, as a site
// receives them: it must never panic, and whatever it accepts must re-encode
// to a fixed point (compared as bytes). Every accepted job's site half is
// built over fuzzShard (defaults plus validation, and for center-g the tau
// grid) without panicking, and a point job the site half accepts must give
// a budget grid that returns — the site's first use of T and HullBase.
func FuzzDecodeJob(f *testing.F) {
	_, jobs := goldenJobs()
	for _, j := range jobs {
		b, err := Encode(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(binaryPointFrame))
	// A hostile point config whose HullBase of 7.9e115 once hung a site's
	// budget grid, as raw JSON: its K does not fit a 32-bit int.
	f.Add(append([]byte{magic, byte(KindPoint)}, `{"K":3470867938590851075,"T":134020159504424,"Variant":90,`+
		`"Eps":1.2301717406954053e+160,"Rho":2.0000000000000533,"Delta":0.2500000000017195,"HullBase":7.880401249703114e+115,"LocalOpts":{"Seed":1}}`...))
	// Center-g frames that once crashed a site building its tau grid or its
	// facility candidates.
	for _, cfg := range []string{`{"K":3,"T":6,"TauBase":1}`, `{"K":3,"T":6,"TauBase":0.5}`, `{"K":3,"T":6,"MaxFacilities":-1}`} {
		f.Add(append([]byte{magic, byte(KindUncertain)}, `{"obj":3,"cfg":`+cfg+`}`...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		j, err := Decode(raw)
		if err != nil {
			return
		}
		once, err := Encode(j)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		again, err := Decode(once)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if twice, err := Encode(again); err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%s\n%s", err, once, twice)
		}
		if _, err := j.SiteHandler(fuzzShard); err != nil || j.Kind != KindPoint {
			return
		}
		geom.Grid(min(j.Core.T, 4096), j.Core.HullBase)
	})
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

// persistentCenterRun runs the center job j over one site handler built by
// factory as job number id, behind a wireHash, and returns the centers with
// the per-round fingerprints of everything that crossed the wire.
func persistentCenterRun(factory func(int, []byte) (transport.Handler, error), id int, j Job) (protocol.Result, *wireHash, error) {
	blob, err := Encode(j)
	if err != nil {
		return protocol.Result{}, nil, err
	}
	h, err := factory(id, blob)
	if err != nil {
		return protocol.Result{}, nil, err
	}
	wire := &wireHash{Transport: transport.NewLoopback([]transport.Handler{h}, true)}
	defer wire.Close()
	res, err := j.RunOver(context.Background(), wire, nil)
	return res, wire, err
}

// TestPersistentSiteTraversalMemo: one persistent site answers center jobs
// of every depth — shallower than its traversal memo, equal, deeper, the
// no-ship variant — and each job's hull bytes (round 0), precluster bytes
// (round 1) and centers equal those of a fresh site that traverses its
// shard itself. The memo grows only when a job asks deeper, and a
// Reference-engine job leaves it untouched. The second half runs the same
// jobs two at a time on the one site (go test -race covers the memo).
func TestPersistentSiteTraversalMemo(t *testing.T) {
	pts := gen.Mixture(gen.MixtureSpec{N: 256, K: 4, Dim: 2, OutlierFrac: 0.1, Seed: 17}).Pts
	d := SiteData{Pts: pts, Cache: persistentCache(pts), Trav: new(kcenter.TraversalMemo)}
	factory := Factory(d)
	fresh := func(id int, blob []byte) (transport.Handler, error) {
		j, err := Decode(blob)
		if err != nil {
			return nil, err
		}
		return j.SiteHandler(SiteData{Pts: pts})
	}
	center := func(k, t int, v core.Variant, eng engine.Options) Job {
		return Job{Kind: KindPoint, Core: core.Config{K: k, T: t, Objective: core.Center, Variant: v,
			LocalOpts: kmedian.Options{Options: eng}}}
	}
	jobs := []struct {
		job   Job
		depth int // the memo's depth after the job
	}{
		{center(4, 128, core.TwoRound, engine.Options{}), 132},
		{center(4, 6, core.TwoRound, engine.Options{}), 132},
		{center(4, 56, core.TwoRound, engine.Options{}), 132},
		{center(4, 128, core.TwoRound, engine.Options{}), 132},
		{center(4, 196, core.TwoRound, engine.Options{}), 200},
		{center(4, 40, core.TwoRoundNoOutliers, engine.Options{}), 200},
		{center(4, 40, core.OneRound, engine.Options{Workers: 2}), 200},
		{center(4, 240, core.TwoRound, engine.Options{Reference: true}), 200},
	}
	check := func(id int, j Job) {
		got, gotWire, err := persistentCenterRun(factory, id, j)
		want, wantWire, errFresh := persistentCenterRun(fresh, id, j)
		if err != nil || errFresh != nil {
			t.Errorf("job %d (k+t = %d): persistent site: %v; fresh site: %v", id, j.Core.K+j.Core.T, err, errFresh)
		} else if !reflect.DeepEqual(got.Centers, want.Centers) || !reflect.DeepEqual(gotWire.up, wantWire.up) ||
			!reflect.DeepEqual(gotWire.down, wantWire.down) {
			t.Errorf("job %d (k+t = %d, %v): the persistent site's centers or bytes differ from a fresh site's",
				id, j.Core.K+j.Core.T, j.Core.Variant)
		}
	}
	for id, row := range jobs {
		check(id, row.job)
		if got := d.Trav.Depth(); got != row.depth {
			t.Fatalf("job %d (k+t = %d): memo depth %d, want %d", id, row.job.Core.K+row.job.Core.T, got, row.depth)
		}
	}

	d.Trav = new(kcenter.TraversalMemo)
	factory = Factory(d)
	var wg sync.WaitGroup
	for half := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := half; id < len(jobs); id += 2 {
				check(id, jobs[id].job)
			}
		}()
	}
	wg.Wait()
}
