// Command dpc-site is the site daemon of a real distributed deployment:
// it loads its local shard of the dataset from CSV, dials the coordinator
// (dpc-cluster -listen, dpc-server -sites-listen, or any client.Cluster
// backend), and serves jobs until the coordinator closes the protocol.
//
// The site never sees any other site's data; everything it sends crosses
// the framed TCP wire protocol and is byte-accounted by the coordinator.
//
// Usage:
//
//	dpc-site -connect 127.0.0.1:9009 -site 0 -in part0.csv
//	dpc-site -connect 127.0.0.1:9009 -site 0 -sites 4 -uncertain -in nodes.csv
//
// The connection stays up across jobs: each job frame ships its own run
// configuration and protocol kind (point or uncertain — see
// internal/jobwire), and the site keeps its dataset and memoized distance
// cache warm from one job to the next. A one-shot run (dpc-cluster -listen)
// is the same conversation with a single job in it. A connection that
// drops without the coordinator's close frame is redialed, so a
// coordinator that cancelled a request finds its fleet again.
//
// With -uncertain the input CSV holds the full uncertain dataset in
// dpc-cluster's node format (node_id,prob,coords...); the site derives the
// shared ground set from it and serves its -site'th round-robin shard of
// the nodes out of -sites total, so every daemon of the fleet can be
// started from one file.
//
// With -aggregate the daemon is an interior node of an aggregation tree
// instead of a leaf: it holds no data, listens for -children child
// connections (leaf sites dialing with their global ids, starting at
// -child-base, or deeper aggregators with -inner), forwards the
// coordinator's welcome and job frames down, and merges each round's child
// replies into one batch for its parent (see internal/tree). It redials
// its parent as a leaf does: the parent's close frame closes the children
// and ends the daemon, while a lost parent or a failed job aborts the
// children without it, so they redial the aggregator, which keeps
// listening for them:
//
//	dpc-site -aggregate -connect 127.0.0.1:9009 -site 0 \
//	    -children-listen 127.0.0.1:9101 -children 4 -child-base 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dpc/internal/dataio"
	"dpc/internal/jobwire"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

func main() {
	var (
		connect   = flag.String("connect", "127.0.0.1:9009", "coordinator address")
		site      = flag.Int("site", 0, "this site's id (0-based, unique across the fleet; ids continue across dpc-server site groups)")
		inPath    = flag.String("in", "-", "input CSV ('-' = stdin): this site's points, or the full node set with -uncertain")
		timeout   = flag.Duration("timeout", 30*time.Second, "how long to retry dialing the coordinator")
		uncFlag   = flag.Bool("uncertain", false, "input rows are uncertain nodes: node_id,prob,coords...")
		siteCount = flag.Int("sites", 0, "total site count, for sharding the -uncertain node set (required with -uncertain)")
		aggregate = flag.Bool("aggregate", false, "serve as an aggregation-tree interior node instead of a leaf site (no data)")
		childAddr = flag.String("children-listen", "127.0.0.1:0", "with -aggregate: address to accept child connections on")
		children  = flag.Int("children", 0, "with -aggregate: number of direct children (required)")
		childBase = flag.Int("child-base", 0, "with -aggregate: global site id of the first child")
		innerFlag = flag.Bool("inner", false, "with -aggregate: children are aggregators themselves (payloads are batches)")
		verbose   = flag.Bool("v", false, "log rounds to stderr")
	)
	flag.Parse()

	if *aggregate {
		if err := runAggregate(*connect, *site, *timeout, *childAddr, *children, *childBase, *innerFlag, *verbose); err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "dpc-site aggregator %d: coordinator closed, exiting\n", *site)
		}
		return
	}

	data := jobwire.SiteData{Site: *site}
	in, err := openIn(*inPath)
	if err != nil {
		fatal(err)
	}
	if *uncFlag {
		if *siteCount <= 0 {
			fatal(fmt.Errorf("-uncertain requires -sites (the fleet size the node set shards over)"))
		}
		g, nodes, err := dataio.ReadNodesCSV(in)
		in.Close()
		if err != nil {
			fatal(err)
		}
		shards := dataio.SplitNodesRoundRobin(nodes, *siteCount)
		if *site >= len(shards) {
			fatal(fmt.Errorf("site %d has no nodes (%d nodes over %d sites)", *site, len(nodes), *siteCount))
		}
		data.G, data.Nodes = g, shards[*site]
		if *verbose {
			fmt.Fprintf(os.Stderr, "dpc-site %d: loaded %d/%d nodes (ground %d points), dialing %s\n",
				*site, len(data.Nodes), len(nodes), g.N(), *connect)
		}
	} else {
		pts, err := dataio.ReadPointsCSV(in)
		in.Close()
		if err != nil {
			fatal(err)
		}
		data.Pts = pts
		if *verbose {
			fmt.Fprintf(os.Stderr, "dpc-site %d: loaded %d points, dialing %s\n", *site, len(pts), *connect)
		}
	}

	// The redial loop is what lets a coordinator recover a fleet: a request
	// cancelled mid-protocol drops the connections, the coordinator
	// re-listens, and every daemon lands back here and dials again. Only a
	// clean protocol close (the coordinator's close frame) ends the daemon;
	// a dial that exhausts -timeout means the coordinator is really gone.
	lost := redialing(fmt.Sprintf("dpc-site %d", *site), *connect)
	err = transport.Redial(*connect, *site, *timeout, func(sc *transport.Site) error {
		err := serveJobs(sc, data, *verbose)
		if err != nil {
			lost(err)
		}
		return err
	})
	if err != nil {
		fatal(err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "dpc-site %d: coordinator closed, exiting\n", *site)
	}
}

// runAggregate serves one interior tree node (tree.ServeLoop): listen for
// the children first, so their dial retries have somewhere to land, and
// keep listening for as long as the daemon lives, so children it aborted
// after a lost parent or a failed job redial into it. The children's site
// ids are the global range [base, base+children), which keeps their seeds
// and pivot comparisons fleet-wide correct.
func runAggregate(connect string, site int, timeout time.Duration, listen string, children, base int, inner, verbose bool) error {
	if children <= 0 {
		return fmt.Errorf("-aggregate requires -children > 0 (got %d)", children)
	}
	l, err := transport.Listen(listen, children)
	if err != nil {
		return err
	}
	defer l.Close()
	who := fmt.Sprintf("dpc-site aggregator %d", site)
	if verbose {
		fmt.Fprintf(os.Stderr, "%s: accepting %d children (ids %d..%d) on %s, dialing %s\n",
			who, children, base, base+children-1, l.Addr(), connect)
	}
	return tree.ServeLoop(l, connect, site, children, base, inner, timeout, redialing(who, connect))
}

// redialing logs a lost coordinator (or parent) connection, leaf or
// aggregator alike, before the daemon's loop dials addr again.
func redialing(who, addr string) func(error) {
	return func(err error) {
		fmt.Fprintf(os.Stderr, "%s: connection lost (%v), redialing %s\n", who, err, addr)
	}
}

// serveJobs serves one connection's job loop (jobwire.ServeJobs: hello
// marker check, one long-lived distance cache over the point shard, one
// fresh protocol handler per job frame), optionally decorating each job's
// handler with -v logging.
func serveJobs(sc *transport.Site, data jobwire.SiteData, verbose bool) error {
	var wrap func(job int, blob []byte, h transport.Handler) transport.Handler
	if verbose {
		wrap = func(job int, blob []byte, h transport.Handler) transport.Handler {
			if j, err := jobwire.Decode(blob); err == nil {
				fmt.Fprintf(os.Stderr, "dpc-site %d: job %d: %s\n", data.Site, job, describeJob(j))
			}
			return logRounds(data.Site, h)
		}
	}
	return jobwire.ServeJobs(sc, data, wrap)
}

// describeJob renders a one-line job summary for -v logging.
func describeJob(j jobwire.Job) string {
	switch j.Kind {
	case jobwire.KindPoint:
		return fmt.Sprintf("%s/%s (k=%d, t=%d)", j.Core.Objective, j.Core.Variant, j.Core.K, j.Core.T)
	case jobwire.KindUncertain:
		return fmt.Sprintf("%v (k=%d, t=%d)", j.Obj, j.Unc.K, j.Unc.T)
	}
	return j.Kind.String()
}

// logRounds wraps a handler with per-round byte logging.
func logRounds(site int, inner transport.Handler) transport.Handler {
	return func(round int, in []byte) ([]byte, error) {
		out, err := inner(round, in)
		fmt.Fprintf(os.Stderr, "dpc-site %d: round %d: %d bytes in, %d bytes out\n",
			site, round, len(in), len(out))
		return out, err
	}
}

func openIn(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpc-site:", err)
	os.Exit(1)
}
