package dpc_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"dpc"
	"dpc/client"
)

// The examples print only what cannot depend on the last bit of a float:
// counts fixed by the request, relations with wide margins, error classes.

// ExampleNewLocalClient is the quick start: distributed (k,t)-median over a
// planted workload of 4 clusters plus 5% far outliers, split over 8
// in-process sites, with the 2-round Algorithm 1 against the 1-round
// baseline that ships every site's t outliers.
func ExampleNewLocalClient() {
	ctx := context.Background()
	in := dpc.Mixture(dpc.MixtureSpec{N: 2000, K: 4, Dim: 2, OutlierFrac: 0.05, Seed: 42})

	// t = 100 matches the planted outlier count.
	req := dpc.Request{Objective: "median", K: 4, T: 100, Sites: 8, Seed: 1, Points: in.Pts}
	local := dpc.NewLocalClient()
	res, err := local.Do(ctx, req)
	if err != nil {
		panic(err)
	}
	sum := 0
	for _, ti := range res.SiteBudgets {
		sum += ti
	}
	req.Variant = "1round"
	base, err := local.Do(ctx, req)
	if err != nil {
		panic(err)
	}

	fmt.Println("centers:", len(res.Centers))
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("cost is the global partial cost:", res.Cost == dpc.Evaluate(in.Pts, res.Centers, res.OutlierBudget, dpc.Median))
	fmt.Println("outliers excluded:", dpc.Evaluate(in.Pts, res.Centers, 0, dpc.Median) > 10*res.Cost)
	fmt.Println("site budgets sum to at most 3t:", sum <= 3*req.T)
	fmt.Println("1-round baseline ships 2x more:", base.UpBytes > 2*res.UpBytes)
	// Output:
	// centers: 4
	// rounds: 2
	// cost is the global partial cost: true
	// outliers excluded: true
	// site budgets sum to at most 3t: true
	// 1-round baseline ships 2x more: true
}

// ExampleListenCluster is the paper's motivating workload: a fleet of edge
// gateways, each holding readings from local sensors, where every faulty
// sensor reports to gateway 0. The gateways are site daemons holding their
// own shards (client.ServeSite; dpc-site processes in production), so the
// allocation sees the skew and hands gateway 0 the outlier budget.
func ExampleListenCluster() {
	const gateways, sensors, k, faulty = 6, 200, 5, 120
	r := rand.New(rand.NewSource(7))
	shards := make([][]dpc.Point, gateways)
	var all []dpc.Point
	for g := range shards {
		// Gateway g observes a regime around (40g, 10): temperature x load.
		for s := 0; s < sensors; s++ {
			shards[g] = append(shards[g], dpc.Point{40*float64(g) + r.NormFloat64()*3, 10 + r.NormFloat64()*2})
		}
		if g == 0 {
			for f := 0; f < faulty; f++ {
				shards[0] = append(shards[0], dpc.Point{r.Float64()*20000 - 10000, r.Float64()*20000 - 10000})
			}
		}
		all = append(all, shards[g]...)
	}

	ln, err := dpc.ListenCluster("127.0.0.1:0", gateways)
	if err != nil {
		panic(err)
	}
	data := make([]client.SiteData, gateways)
	for g, shard := range shards {
		data[g] = client.SiteData{Site: g, Points: shard}
	}
	join := serveSites(ln.Addr(), data)
	fleet, err := ln.Accept()
	if err != nil {
		panic(err)
	}

	// Points is the coordinator's copy for evaluation only: the protocol
	// runs on the shards the gateways hold.
	ctx := context.Background()
	med, err := fleet.Do(ctx, dpc.Request{Objective: "median", K: k, T: faulty, Points: all})
	if err != nil {
		panic(err)
	}
	cen, err := fleet.Do(ctx, dpc.Request{Objective: "center", K: k, T: faulty, Points: all})
	if err != nil {
		panic(err)
	}
	blind, err := fleet.Do(ctx, dpc.Request{Objective: "center", K: k, T: 0, Points: all})
	if err != nil {
		panic(err)
	}

	fmt.Println("budgets:", len(med.SiteBudgets))
	fmt.Println("gateway 0 gets the largest budget:", slices.Index(med.SiteBudgets, slices.Max(med.SiteBudgets)) == 0)
	fmt.Println("center radius without a budget is 100x worse:", blind.Cost > 100*cen.Cost)
	fleet.Close()
	fmt.Println("gateways exited cleanly:", join() == nil)
	// Output:
	// budgets: 6
	// gateway 0 gets the largest budget: true
	// center radius without a budget is 100x worse: true
	// gateways exited cleanly: true
}

// serveSites runs one site daemon per entry of data against the cluster
// coordinator at addr, each in its own goroutine as a dpc-site process
// would; the returned join waits for all of them and reports their errors.
func serveSites(addr string, data []client.SiteData) (join func() error) {
	errs := make([]error, len(data))
	var wg sync.WaitGroup
	for i, d := range data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = client.ServeSite(addr, d, 10*time.Second)
		}()
	}
	return func() error { wg.Wait(); return errors.Join(errs...) }
}

// ExampleRequest_uncertain clusters noisy tracks: each object's position is
// a discrete distribution over candidate locations (Section 5's uncertain
// nodes). Algorithm 3 ships only collapsed (y_j, ell_j) pairs where the
// 1-round baseline ships whole distributions; Algorithm 4 answers the
// global (k,t)-center-g objective by a parametric search over truncation
// thresholds.
func ExampleRequest_uncertain() {
	ctx := context.Background()
	in := dpc.UncertainMixture(dpc.UncertainSpec{N: 80, K: 3, Dim: 2, Support: 8, OutlierFrac: 0.06, Scatter: 2, Seed: 99})
	local := dpc.NewLocalClient()
	do := func(objective, variant string) *dpc.Response {
		res, err := local.Do(ctx, dpc.Request{
			Objective: objective, Variant: variant, K: 3, T: 12, Sites: 4, Seed: 1,
			Ground: in.Ground, Nodes: in.Nodes,
		})
		if err != nil {
			panic(err)
		}
		return res
	}
	compressed, naive := do("u-median", "2round"), do("u-median", "1round")
	pp, g := do("u-centerpp", ""), do("u-centerg", "")

	fmt.Println("u-median centers:", len(compressed.Centers))
	fmt.Println("cost is the expected partial cost:", compressed.Cost == dpc.EvalUncertainMedian(in.Ground, in.Nodes, compressed.Centers, compressed.OutlierBudget))
	fmt.Println("shipping distributions costs 2x the bytes:", naive.UpBytes > 2*compressed.UpBytes)
	fmt.Println("u-centerpp centers:", len(pp.Centers))
	fmt.Println("u-centerg cost kind:", g.CostKind)
	fmt.Println("u-centerg chose a threshold:", g.Tau > 0)
	// Output:
	// u-median centers: 3
	// cost is the expected partial cost: true
	// shipping distributions costs 2x the bytes: true
	// u-centerpp centers: 3
	// u-centerg cost kind: estimate
	// u-centerg chose a threshold: true
}

// ExampleRequest_central is Section 3.1's trick: accelerate a centralized
// (k,t)-median solve by simulating the distributed algorithm in-process.
// The direct Theorem 3.1 engine is quadratic in n; each simulation level
// runs Algorithm 1 over chunks of the input (Theorem 3.10), trading a
// constant factor of quality.
func ExampleRequest_central() {
	in := dpc.Mixture(dpc.MixtureSpec{N: 2000, K: 4, Dim: 2, OutlierFrac: 0.04, Seed: 2000})
	req := dpc.Request{Objective: "median", K: 4, T: 40, Seed: 1, Central: true, Points: in.Pts}
	var direct float64
	for levels := 0; levels <= 2; levels++ {
		req.Levels = levels
		res, err := dpc.NewLocalClient().Do(context.Background(), req)
		if err != nil {
			panic(err)
		}
		if levels == 0 {
			direct = res.Cost
		}
		fmt.Printf("levels %d: %d centers, within 2x of the direct cost: %v\n",
			levels, len(res.Centers), res.Cost <= 2*direct)
	}
	// Output:
	// levels 0: 4 centers, within 2x of the direct cost: true
	// levels 1: 4 centers, within 2x of the direct cost: true
	// levels 2: 4 centers, within 2x of the direct cost: true
}

// ExampleNewRemoteClient asks one Request — a point (k,t)-median, then an
// uncertain u-median — of three backends: Local (in-process sites), a
// Cluster (this process is the coordinator; two site daemons run as
// goroutines) and Remote (an embedded job server over real HTTP). Where the
// protocol runs is a deployment choice, so the centers are byte-identical.
// A cancelled context aborts a solve with context.Canceled.
func ExampleNewRemoteClient() {
	ctx := context.Background()
	in := dpc.Mixture(dpc.MixtureSpec{N: 600, K: 4, Dim: 2, OutlierFrac: 0.05, Seed: 42})
	uin := dpc.UncertainMixture(dpc.UncertainSpec{N: 100, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 7})
	const sites = 2
	reqs := []dpc.Request{
		{Objective: "median", K: 4, T: 30, Sites: sites, Seed: 1, Points: in.Pts},
		{Objective: "u-median", K: 3, T: 8, Sites: sites, Seed: 1, Ground: uin.Ground, Nodes: uin.Nodes},
	}

	ln, err := dpc.ListenCluster("127.0.0.1:0", sites)
	if err != nil {
		panic(err)
	}
	data := make([]client.SiteData, sites)
	for i := range data {
		// Round-robin shards, exactly how Local and the server shard.
		data[i] = client.SiteData{Site: i, Ground: uin.Ground}
		for j := i; j < len(in.Pts); j += sites {
			data[i].Points = append(data[i].Points, in.Pts[j])
		}
		for j := i; j < len(uin.Nodes); j += sites {
			data[i].Nodes = append(data[i].Nodes, uin.Nodes[j])
		}
	}
	join := serveSites(ln.Addr(), data)
	cluster, err := ln.Accept()
	if err != nil {
		panic(err)
	}
	defer join()
	defer cluster.Close()

	srv := dpc.NewServer(dpc.ServeConfig{})
	defer srv.Close()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(hl)
	defer hs.Close()

	local := dpc.NewLocalClient()
	backends := []struct {
		name string
		c    dpc.Client
	}{{"local", local}, {"cluster", cluster}, {"remote", dpc.NewRemoteClient("http://"+hl.Addr().String(), dpc.RemoteOptions{})}}
	for _, req := range reqs {
		var first *dpc.Response
		for _, b := range backends {
			res, err := b.c.Do(ctx, req)
			if err != nil {
				panic(err)
			}
			if first == nil {
				first = res
				fmt.Printf("%s: %d centers\n", req.Objective, len(res.Centers))
				continue
			}
			fmt.Printf("  %s byte-identical to local: %v\n", b.name,
				reflect.DeepEqual(res.Centers, first.Centers) && res.UpBytes == first.UpBytes)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err = local.Do(cancelled, reqs[0])
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	// Output:
	// median: 4 centers
	//   cluster byte-identical to local: true
	//   remote byte-identical to local: true
	// u-median: 3 centers
	//   cluster byte-identical to local: true
	//   remote byte-identical to local: true
	// cancelled: true
}
