package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dpc/internal/alloc"
	"dpc/internal/comm"
	"dpc/internal/core"
	"dpc/internal/geom"
	"dpc/internal/jobwire"
	"dpc/internal/journal"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

// Layer probes time direct calls into one layer from the outside, on the
// workload's own data (site 0's shard, the workload's dim, k and t, the
// payloads a traced job captured). They price a layer; the end-to-end
// metrics say whether that price matters on a workload.

// sink keeps probe loops from being optimized away.
var sink float64

// probeSizes are the lengths of the fixed-size probe loops (the self-tests
// shrink them).
type probeSizes struct {
	distPairs    int // metric.*_ns_per_dist
	nearestCalls int // metric.index_nearest_ns
	jvPoints     int // kmedian.jv_s subsample
	rttRounds    int // transport.tcp_rtt_us
	bulkRounds   int // transport.tcp_mb_per_s
	bulkBytes    int
	syncAppends  int // journal.append_sync_us
	appends      int // journal.append_nosync_us, replay
	codecReps    int // repetitions of the microsecond-scale calls
}

var fullProbes = probeSizes{
	distPairs: 1 << 22, nearestCalls: 20000, jvPoints: 300,
	rttRounds: 200, bulkRounds: 16, bulkBytes: 1 << 20,
	syncAppends: 200, appends: 2000, codecReps: 200,
}

// medianOf times fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// probeInput is what the probes run on.
type probeInput struct {
	shard []metric.Point // site 0's shard
	cfg   core.Config
	// hulls and preclusters are a traced job's captured round-0 and
	// round-1 site replies.
	hulls, preclusters [][]byte
}

// runProbes returns the probe metrics by name.
func runProbes(ctx context.Context, in probeInput, sz probeSizes) (map[string]float64, error) {
	m := make(map[string]float64)
	rng := rand.New(rand.NewSource(1))
	n := len(in.shard)
	k2, t := 2*in.cfg.K, float64(in.cfg.T)
	if in.cfg.T >= n {
		t = float64(n - 1)
	}

	// metric: the raw kernels at the workload's dimension.
	const ring = 4096
	ia, ib := make([]int, ring), make([]int, ring)
	for i := range ia {
		ia[i], ib[i] = rng.Intn(n), rng.Intn(n)
	}
	kernel := func(f func(a, b metric.Point) float64) float64 {
		t0 := time.Now()
		var s float64
		for i := 0; i < sz.distPairs; i++ {
			s += f(in.shard[ia[i%ring]], in.shard[ib[i%ring]])
		}
		sink += s
		return float64(time.Since(t0).Nanoseconds()) / float64(sz.distPairs)
	}
	m["metric.l2_ns_per_dist"] = kernel(metric.L2)
	m["metric.sql2_ns_per_dist"] = kernel(metric.SqL2)

	// metric: cache prefill and the pivot index, on a shard-sized space the
	// cache accepts.
	sub := in.shard
	if len(sub) > metric.MaxCachePoints {
		sub = sub[:metric.MaxCachePoints]
	}
	t0 := time.Now()
	dc := metric.NewDistCache(metric.NewPoints(sub))
	dc.Prefill(0)
	pairs := float64(len(sub)) * float64(len(sub)-1) / 2
	m["metric.cache_prefill_ns_per_pair"] = float64(time.Since(t0).Nanoseconds()) / pairs
	t0 = time.Now()
	ix := metric.NewIndex(dc, metric.IndexOptions{})
	m["metric.index_build_ms"] = msSince(t0)
	cands := make([]int, k2)
	t0 = time.Now()
	for q := 0; q < sz.nearestCalls; q++ {
		for c := range cands {
			cands[c] = (q*31 + c*977) % len(sub)
		}
		_, d := ix.Nearest(q%len(sub), cands)
		sink += d
	}
	m["metric.index_nearest_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(sz.nearestCalls)

	// kmedian: one site-sized local search over the oracle the site would
	// build, at full and at single width.
	search := func(workers int) float64 {
		var costs metric.Costs = metric.SelfCosts{S: metric.CacheSpace(metric.NewPoints(in.shard))}
		if in.cfg.Objective == core.Means {
			costs = metric.Squared{C: costs}
		}
		opt := kmedian.Options{Seed: 1}
		opt.Workers = workers
		t0 := time.Now()
		sol := kmedian.LocalSearch(costs, nil, k2, t, opt)
		sink += sol.Cost
		return time.Since(t0).Seconds()
	}
	wide, one := search(runtime.NumCPU()), search(1)
	m["kmedian.localsearch_s"] = wide
	m["kmedian.localsearch_w1_s"] = one
	m["kmedian.scaling_x"] = one / wide
	jvPts := in.shard
	if len(jvPts) > sz.jvPoints {
		jvPts = jvPts[:sz.jvPoints]
	}
	t0 = time.Now()
	sol := kmedian.JV(metric.SelfCosts{S: metric.NewPoints(jvPts)}, nil, in.cfg.K, float64(len(jvPts)/20), 1, kmedian.Options{Seed: 1})
	sink += sol.Cost
	m["kmedian.jv_s"] = time.Since(t0).Seconds()

	// kcenter: the site traversal, and the coordinator's solve on the
	// instance a real job shipped.
	depth := in.cfg.K + in.cfg.T
	if depth > n {
		depth = n
	}
	m["kcenter.gonzalez_s"] = medianOf(5, func() {
		tr := kcenter.GonzalezOpt(metric.CacheSpace(metric.NewPoints(in.shard)), depth, 0, kcenter.Opt{})
		sink += float64(len(tr.Order))
	}).Seconds()
	var cpts []metric.Point
	var cwts []float64
	var decoded []comm.Payload
	var wireBytes int
	for _, b := range in.preclusters {
		p, pts, wts, err := decodeReply(b, in.cfg.Objective)
		if err != nil {
			return nil, fmt.Errorf("probe: captured precluster: %w", err)
		}
		decoded = append(decoded, p)
		cpts, cwts = append(cpts, pts...), append(cwts, wts...)
		wireBytes += len(b)
	}
	m["kcenter.partial_s"] = medianOf(3, func() {
		s := kcenter.PartialOpt(metric.NewPoints(cpts), cwts, in.cfg.K, float64(in.cfg.T), kcenter.Opt{})
		sink += s.Radius
	}).Seconds()

	// alloc: the pivot allocation over the hulls a real job shipped.
	fns := make([]geom.ConvexFn, len(in.hulls))
	for i, b := range in.hulls {
		var msg comm.HullMsg
		if err := msg.UnmarshalBinary(b); err != nil {
			return nil, fmt.Errorf("probe: captured hull: %w", err)
		}
		fn, err := geom.NewConvexFn(msg.V)
		if err != nil {
			return nil, fmt.Errorf("probe: captured hull: %w", err)
		}
		fns[i] = fn
	}
	m["alloc.allocate_us"] = float64(medianOf(sz.codecReps, func() {
		p, _ := alloc.Allocate(fns, 2*in.cfg.T)
		sink += float64(p.Rank)
	}).Nanoseconds()) / 1e3

	// comm: the captured preclusters back through the codecs.
	m["comm.decode_ns_per_byte"] = float64(medianOf(sz.codecReps, func() {
		for _, b := range in.preclusters {
			if _, _, _, err := decodeReply(b, in.cfg.Objective); err != nil {
				panic(err) // decoded once above
			}
		}
	}).Nanoseconds()) / float64(wireBytes)
	m["comm.encode_ns_per_byte"] = float64(medianOf(sz.codecReps, func() {
		for _, p := range decoded {
			b, err := comm.Encode(p)
			if err != nil {
				panic(err) // these payloads were decoded from valid bytes
			}
			sink += float64(len(b))
		}
	}).Nanoseconds()) / float64(wireBytes)

	// jobwire: the job frame that re-arms a persistent site.
	frame := jobwire.Job{Kind: jobwire.KindPoint, Core: in.cfg}
	blob, err := jobwire.Encode(frame)
	if err != nil {
		return nil, err
	}
	m["jobwire.encode_us"] = float64(medianOf(sz.codecReps, func() {
		b, _ := jobwire.Encode(frame)
		sink += float64(len(b))
	}).Nanoseconds()) / 1e3
	m["jobwire.decode_us"] = float64(medianOf(sz.codecReps, func() {
		j, _ := jobwire.Decode(blob)
		sink += float64(j.Core.K)
	}).Nanoseconds()) / 1e3

	if err := probeTCP(ctx, m, sz); err != nil {
		return nil, err
	}
	if err := probeJournal(m, sz); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeReply decodes a final-round site reply of the 2-round protocols
// with the program's public codecs — median/means sites ship
// Multi{WeightedPointsMsg, PointsMsg}, center sites a WeightedPointsMsg —
// into a re-encodable payload and the weighted clients it contributes to
// the coordinator's instance (shipped outliers weigh 1).
func decodeReply(b []byte, obj core.Objective) (comm.Payload, []metric.Point, []float64, error) {
	var centers comm.WeightedPointsMsg
	if obj == core.Center {
		if err := centers.UnmarshalBinary(b); err != nil {
			return nil, nil, nil, err
		}
		return centers, centers.Pts, centers.W, nil
	}
	parts, err := comm.SplitMulti(b)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(parts) != 2 {
		return nil, nil, nil, fmt.Errorf("precluster payload has %d parts", len(parts))
	}
	if err := centers.UnmarshalBinary(parts[0]); err != nil {
		return nil, nil, nil, err
	}
	var outs comm.PointsMsg
	if err := outs.UnmarshalBinary(parts[1]); err != nil {
		return nil, nil, nil, err
	}
	pts := append([]metric.Point(nil), centers.Pts...)
	wts := append([]float64(nil), centers.W...)
	for _, o := range outs.Pts {
		pts, wts = append(pts, o), append(wts, 1)
	}
	return comm.Multi{Parts: []comm.Payload{centers, outs}}, pts, wts, nil
}

// probeTCP echoes payloads through a one-site localhost transport: the
// framing and socket cost of a round with no compute in it.
func probeTCP(ctx context.Context, m map[string]float64, sz probeSizes) error {
	echo := func(_ int, in []byte) ([]byte, error) { return in, nil }
	tr, err := transport.NewLocalTCP([]transport.Handler{echo})
	if err != nil {
		return err
	}
	defer tr.Close()
	round := 0
	trip := func(payload []byte) error {
		if err := tr.Send(round, 0, payload); err != nil {
			return err
		}
		_, err := tr.Gather(ctx, round)
		round++
		return err
	}
	small := make([]byte, 1<<10)
	rtts := make([]float64, sz.rttRounds)
	for i := range rtts {
		t0 := time.Now()
		if err := trip(small); err != nil {
			return err
		}
		rtts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	m["transport.tcp_rtt_us"] = median(rtts)
	bulk := make([]byte, sz.bulkBytes)
	t0 := time.Now()
	for i := 0; i < sz.bulkRounds; i++ {
		if err := trip(bulk); err != nil {
			return err
		}
	}
	// Each round moves the payload down and back up.
	m["transport.tcp_mb_per_s"] = 2 * float64(sz.bulkRounds) * float64(sz.bulkBytes) / 1e6 / time.Since(t0).Seconds()
	return nil
}

// probeJournal appends 1 KiB records to fresh segment directories, fsynced
// and not, and replays the larger one.
func probeJournal(m map[string]float64, sz probeSizes) error {
	dir, err := scratchDir("journal-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := make([]byte, 1<<10)
	appendAll := func(sub string, sync bool, count int) (float64, error) {
		log, _, err := journal.OpenDir(filepath.Join(dir, sub), journal.DirOptions{Sync: sync})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < count; i++ {
			if _, err := log.Append(journal.Kind(1), rec); err != nil {
				log.Close()
				return 0, err
			}
		}
		us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(count)
		return us, log.Close()
	}
	if m["journal.append_sync_us"], err = appendAll("sync", true, sz.syncAppends); err != nil {
		return err
	}
	if m["journal.append_nosync_us"], err = appendAll("nosync", false, sz.appends); err != nil {
		return err
	}
	t0 := time.Now()
	log, res, err := journal.OpenDir(filepath.Join(dir, "nosync"), journal.DirOptions{})
	if err != nil {
		return err
	}
	d := time.Since(t0)
	if len(res.Records) != sz.appends {
		log.Close()
		return fmt.Errorf("journal probe: replayed %d of %d records", len(res.Records), sz.appends)
	}
	m["journal.replay_mb_per_s"] = float64(sz.appends) * float64(len(rec)) / 1e6 / d.Seconds()
	return log.Close()
}
