// Client API tour: one Request, three backends.
//
// Run with:
//
//	go run ./examples/client
//
// The same dpc.Request — first a point (k,t)-median, then an uncertain
// u-median (Section 5) — is answered by:
//
//   - the Local backend (in-process simulated sites),
//   - a Cluster backend (this process hosts the coordinator; two site
//     "daemons" run as goroutines via client.ServeSite — in production
//     they would be dpc-site processes on other machines),
//   - a Remote backend (an embedded dpc-server reached over real HTTP).
//
// All three return byte-identical centers and identical measured
// communication, because where the protocol runs is a deployment choice,
// not an algorithmic one. The example also shows context cancellation:
// a deadline of 1ms aborts a solve mid-run with context.DeadlineExceeded.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"
	"time"

	"dpc"
	"dpc/client"
)

func main() {
	ctx := context.Background()

	// A planted instance: 1200 points in 4 clusters plus 5% far outliers,
	// and an uncertain instance of 100 distribution-valued nodes.
	in := dpc.Mixture(dpc.MixtureSpec{N: 1200, K: 4, Dim: 2, OutlierFrac: 0.05, Seed: 42})
	uin := dpc.UncertainMixture(dpc.UncertainSpec{N: 100, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 7})

	const sites = 2
	pointReq := dpc.Request{
		Objective: "median", K: 4, T: 60, Sites: sites, Seed: 1,
		Points: in.Pts,
	}
	uncReq := dpc.Request{
		Objective: "u-median", K: 3, T: 8, Sites: sites, Seed: 1,
		Ground: uin.Ground, Nodes: uin.Nodes,
	}

	// --- Backend 1: Local (in-process sites) ---
	local := dpc.NewLocalClient()

	// --- Backend 2: Cluster (coordinator here, sites as daemons) ---
	cl, err := dpc.ListenCluster("127.0.0.1:0", sites)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < sites; i++ {
		// Round-robin shards, exactly how Local and the server shard.
		var shard []dpc.Point
		for j := i; j < len(in.Pts); j += sites {
			shard = append(shard, in.Pts[j])
		}
		var nodeShard []client.Node
		for j := i; j < len(uin.Nodes); j += sites {
			nodeShard = append(nodeShard, uin.Nodes[j])
		}
		go func(i int) {
			err := client.ServeSite(cl.Addr(), client.SiteData{
				Site: i, Points: shard, Ground: uin.Ground, Nodes: nodeShard,
			}, 10*time.Second)
			if err != nil {
				log.Printf("site %d: %v", i, err)
			}
		}(i)
	}
	cluster, err := cl.Accept()
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// --- Backend 3: Remote (embedded dpc-server over real HTTP) ---
	srv := dpc.NewServer(dpc.ServeConfig{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	remote := dpc.NewRemoteClient("http://"+ln.Addr().String(), dpc.RemoteOptions{})

	backends := []struct {
		name string
		c    dpc.Client
	}{{"local", local}, {"cluster", cluster}, {"remote", remote}}

	for _, req := range []dpc.Request{pointReq, uncReq} {
		fmt.Printf("\n%s  (k=%d, t=%d, %d sites)\n", req.Objective, req.K, req.T, req.Sites)
		var first []dpc.Point
		for _, b := range backends {
			res, err := b.c.Do(ctx, req)
			if err != nil {
				log.Fatal(err)
			}
			match := "(reference)"
			if first == nil {
				first = res.Centers
			} else if reflect.DeepEqual(res.Centers, first) {
				match = "byte-identical"
			} else {
				match = "MISMATCH"
			}
			fmt.Printf("  %-8s %d centers  cost %-12.6g %5d B up  %s\n",
				b.name, len(res.Centers), res.Cost, res.UpBytes, match)
		}
	}

	// --- Cancellation: a deadline aborts the solve mid-protocol ---
	short, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	_, err = local.Do(short, pointReq)
	fmt.Printf("\n1ms deadline: err = %v (DeadlineExceeded: %v)\n",
		err, errors.Is(err, context.DeadlineExceeded))
}
