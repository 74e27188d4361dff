package jobwire

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dpc/internal/core"
	"dpc/internal/engine"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

var update = flag.Bool("update", false, "rewrite testdata/protocol_seed1.golden from this run")

const goldenPath = "testdata/protocol_seed1.golden"

// goldenRun runs j with one loopback site per shard behind a wireHash, and
// checks that the in-process scaffold (RunLocal) is that same run. The site
// handlers are built from j as its job frame delivers it, Decode(Encode(j)),
// so the golden also proves the frame carries every field a site half
// reads.
func goldenRun(j Job, sh Shards) (protocol.Result, *wireHash, error) {
	blob, err := Encode(j)
	if err != nil {
		return protocol.Result{}, nil, err
	}
	sent, err := Decode(blob)
	if err != nil {
		return protocol.Result{}, nil, err
	}
	hs := make([]transport.Handler, len(sh.Pts))
	for i := range hs {
		if hs[i], err = sent.SiteHandler(SiteData{Site: i, Pts: sh.Pts[i], G: sh.G, Nodes: sh.Nodes[i]}); err != nil {
			return protocol.Result{}, nil, err
		}
	}
	wire := &wireHash{Transport: transport.NewLoopback(hs, true)}
	defer wire.Close()
	res, err := j.RunOver(context.Background(), wire, sh.G)
	if err != nil {
		return res, wire, err
	}
	local, err := j.RunLocal(context.Background(), sh)
	if err == nil && !(reflect.DeepEqual(local.Centers, res.Centers) && reflect.DeepEqual(local.Report.RoundUp, res.Report.RoundUp) &&
		reflect.DeepEqual(local.SiteBudgets, res.SiteBudgets) && local.OutlierBudget == res.OutlierBudget && local.Tau == res.Tau) {
		err = fmt.Errorf("RunLocal returned %+v, handlers + RunOver %+v", local, res)
	}
	return res, wire, err
}

// wireHash is a loopback fleet that fingerprints what crosses it: every
// round's downstream broadcast and every site's reply, in site order, feed
// one FNV-1a hash per round and direction. Byte counts alone (the Report)
// would let a changed weight or a reordered outlier through.
type wireHash struct {
	transport.Transport
	up, down []uint64
}

func (w *wireHash) mix(sums *[]uint64, round int, b []byte) {
	for len(*sums) <= round {
		*sums = append(*sums, 0)
	}
	h := fnv.New64a()
	var prev [8]byte
	binary.LittleEndian.PutUint64(prev[:], (*sums)[round])
	h.Write(prev[:])
	binary.LittleEndian.PutUint64(prev[:], uint64(len(b)))
	h.Write(prev[:])
	h.Write(b)
	(*sums)[round] = h.Sum64()
}

func (w *wireHash) Broadcast(round int, b []byte) error {
	w.mix(&w.down, round, b)
	return w.Transport.Broadcast(round, b)
}

func (w *wireHash) Gather(ctx context.Context, round int) (transport.RoundResult, error) {
	res, err := w.Transport.Gather(ctx, round)
	for _, b := range res.Payloads {
		w.mix(&w.up, round, b)
	}
	return res, err
}

// goldenShards is the instance every golden row runs on, split over four
// sites of which site 0 holds fewer items than the outlier budget the rows
// use (9 points against t = 40, 5 nodes against t = 6) — the regime where a
// site's budget is capped at n_i - 1 and a Gonzalez traversal runs out of
// points before k + t. Site 0 takes a few planted outliers so the
// allocation has a reason to spend budget there; the rest go round-robin.
// The point sites 1-3 hold 150 points each, past the size up to which the
// auto engine picks the seed-blind Jain-Vazirani solver, so the seeded,
// warm-started local search is what runs there; the 1-round rows put more
// than that many clients before the coordinator too. The uncertain shards
// are small (Algorithm 4 solves every site once per threshold and budget)
// and their rows force the local-search engine instead.
func goldenShards() Shards {
	pin := gen.Mixture(gen.MixtureSpec{N: 459, K: 3, OutlierFrac: 0.05, Seed: 1})
	uin := gen.UncertainMixture(gen.UncertainSpec{N: 65, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 1})
	sh := Shards{Pts: make([][]metric.Point, 4), G: uin.Ground, Nodes: make([][]uncertain.Node, 4)}
	// small reports whether item j goes to site 0: the first `out` planted
	// outliers (label -1) and the first `in` planted inliers.
	small := func(label []int, out, in int) func(j int) bool {
		return func(j int) bool {
			left := &in
			if label[j] < 0 {
				left = &out
			}
			*left--
			return *left >= 0
		}
	}
	pick, rest := small(pin.Label, 4, 5), 0
	for j, p := range pin.Pts {
		site := 0
		if !pick(j) {
			site, rest = 1+rest%3, rest+1
		}
		sh.Pts[site] = append(sh.Pts[site], p)
	}
	pick, rest = small(uin.Label, 2, 3), 0
	for j, nd := range uin.Nodes {
		site := 0
		if !pick(j) {
			site, rest = 1+rest%3, rest+1
		}
		sh.Nodes[site] = append(sh.Nodes[site], nd)
	}
	return sh
}

// goldenJobs lists every objective under every variant it supports, named
// by the job API's spellings, in the order the golden file holds them.
func goldenJobs() (names []string, jobs []Job) {
	opts := kmedian.Options{Seed: 1}
	ls := kmedian.Options{Seed: 1, Options: engine.Options{Algo: engine.LocalSearch}}
	for _, obj := range []core.Objective{core.Median, core.Means, core.Center} {
		for i, vr := range []core.Variant{core.TwoRound, core.OneRound, core.TwoRoundNoOutliers} {
			names = append(names, fmt.Sprintf("%v/%s", obj, [...]string{"2round", "1round", "noship"}[i]))
			jobs = append(jobs, Job{Kind: KindPoint,
				Core: core.Config{K: 3, T: 40, Objective: obj, Variant: vr, LocalOpts: opts}})
		}
	}
	for i, obj := range []uncertain.Objective{uncertain.Median, uncertain.Means, uncertain.CenterPP, uncertain.CenterG} {
		for j, vr := range []uncertain.Variant{uncertain.TwoRound, uncertain.OneRoundShipDists} {
			names = append(names, [...]string{"u-median", "u-means", "u-centerpp", "u-centerg"}[i]+[...]string{"/2round", "/1round"}[j])
			jobs = append(jobs, Job{Kind: KindUncertain, Obj: obj,
				Unc: uncertain.Config{K: 3, T: 6, Variant: vr, LocalOpts: ls}})
		}
	}
	return names, jobs
}

// bitsOf renders a float as its exact bit pattern plus a readable value.
func bitsOf(x float64) string {
	return fmt.Sprintf("%016x(%g)", math.Float64bits(x), x)
}

// TestProtocolGolden pins, in absolute terms, what every protocol in the
// repository puts on the wire and returns: all seven objectives under every
// variant each supports run over goldenShards, and per run the center
// coordinates (as float bit patterns), the per-round payload bytes in both
// directions — their counts, and a hash of the bytes themselves — the site
// budgets, the outlier entitlement, the size of the coordinator's instance
// and Algorithm 4's threshold must equal testdata/protocol_seed1.golden.
// The A-vs-B parity tests (transports, topologies, worker counts, backends)
// cannot see a change that moves both sides; this one can. Like
// internal/bench's quick_seed1.golden it is compared on amd64 only —
// elsewhere a fused multiply-add may move a low bit of a cost, and budgets
// and byte counts follow from comparisons of costs. A change that means to
// move a value regenerates the file with
// go test ./internal/jobwire -run TestProtocolGolden -update.
func TestProtocolGolden(t *testing.T) {
	sh := goldenShards()
	names, jobs := goldenJobs()
	var b strings.Builder
	for i, j := range jobs {
		res, wire, err := goldenRun(j, sh)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if len(res.Centers) == 0 {
			t.Fatalf("%s: no centers", names[i])
		}
		fmt.Fprintf(&b, "== %s\n", names[i])
		for c, p := range res.Centers {
			cells := make([]string, len(p))
			for d, x := range p {
				cells[d] = bitsOf(x)
			}
			fmt.Fprintf(&b, "center %d: %s\n", c, strings.Join(cells, " "))
		}
		fmt.Fprintf(&b, "round up: %v %x  down: %v %x\n", res.Report.RoundUp, wire.up, res.Report.RoundDown, wire.down)
		fmt.Fprintf(&b, "site budgets: %v\n", res.SiteBudgets)
		fmt.Fprintf(&b, "outlier budget: %s  coordinator clients: %d  tau: %s\n\n",
			bitsOf(res.OutlierBudget), res.CoordinatorClients, bitsOf(res.Tau))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/jobwire -run TestProtocolGolden -update)", err)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	want := strings.Split(string(raw), "\n\n")
	rows := strings.Split(got, "\n\n")
	if len(rows) != len(want) {
		t.Fatalf("%s holds %d rows, this run produced %d", goldenPath, len(want)-1, len(rows)-1)
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("drifted from %s (if intended, regenerate with -update):\n got:\n%s\nwant:\n%s", goldenPath, rows[i], want[i])
		}
	}
}
