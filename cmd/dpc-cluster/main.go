// Command dpc-cluster runs distributed partial clustering on a CSV dataset:
// points (or uncertain nodes) in, centers out. It is the "downstream user"
// entry point: bring your own data, pick k and how many points you are
// willing to write off, and get centers plus the measured communication
// footprint of the deployment.
//
// It is a thin shell over the unified client API: every clustering flag is
// generated from dpc/client.Request's JSON field names (see
// client.BindFlags), and the identical request runs on any backend — the
// in-process Local one by default, a running dpc-server with -server, or a
// fleet of dpc-site daemons in other processes with -listen.
//
// Usage:
//
//	dpc-cluster -k 5 -t 100 -in points.csv -out centers.csv
//	dpc-cluster -k 3 -t 10 -objective center -sites 16 -assign labels.csv < points.csv
//	dpc-cluster -k 4 -t 50 -variant noship -report
//	dpc-cluster -k 5 -t 100 -transport tcp -report < points.csv      # real localhost sockets
//	dpc-cluster -k 3 -t 8 -uncertain -objective u-median < nodes.csv # Section 5
//	dpc-cluster -k 4 -t 20 -server http://127.0.0.1:8080 < points.csv
//	dpc-cluster -k 5 -t 100 -listen 127.0.0.1:9009 -sites 4 -out centers.csv
//
// With -listen the command is the coordinator of a real deployment: it
// waits for -sites dpc-site daemons to dial in (under -topology
// tree,branch=B, for the top tier of dpc-site -aggregate daemons fronting
// them — ids 0..d-1 where d is the last entry of internal/tree.Tiers),
// sends the fleet one job frame, drives the protocol over the sockets and
// closes the fleet, which ends every daemon cleanly. The data lives at the
// sites, so -in is optional: given, it is only evaluated against (the true
// global cost instead of the coordinator's) and, with -uncertain, supplies
// the shared ground set the coordinator solves over. Per-site solves are
// seeded from -seed + site id, so the centers are byte-identical to the
// in-process run on the same shards; -report additionally shows what
// physically crossed each tree level.
//
// For a long-running service see dpc-server.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dpc/client"
	"dpc/internal/dataio"
)

func main() {
	// Flag defaults mirror the historical dpc-cluster defaults; the flag
	// set itself is generated from the Request fields.
	req := client.Request{
		Objective: client.Median, Variant: "2round", K: 3,
		Sites: 8, Eps: 1, Seed: 1, Transport: "loopback",
	}
	client.BindFlags(flag.CommandLine, &req)
	var (
		inPath    = flag.String("in", "", "input CSV ('-' = stdin, the default; with -listen the default is none): points, or nodes with -uncertain")
		outPath   = flag.String("out", "-", "output CSV of centers ('-' = stdout)")
		assignOut = flag.String("assign", "", "optional output CSV of per-point assignments (point objectives)")
		report    = flag.Bool("report", false, "print the communication report to stderr")
		uncFlag   = flag.Bool("uncertain", false, "input rows are uncertain nodes: node_id,prob,coords...")
		server    = flag.String("server", "", "run against this dpc-server base URL instead of in-process")
		listen    = flag.String("listen", "", "coordinate -sites dpc-site daemons dialing this address instead of running in-process")
	)
	flag.Parse()
	if *server != "" && *listen != "" {
		fatal(fmt.Errorf("-server and -listen are different backends; pick one"))
	}

	var err error
	if *uncFlag {
		req.Objective, err = uncertainObjective(req.Objective)
		if err != nil {
			fatal(err)
		}
	}
	if *inPath == "" && *listen == "" {
		*inPath = "-"
	}
	if *inPath != "" {
		in, err := openIn(*inPath)
		if err != nil {
			fatal(err)
		}
		if *uncFlag {
			req.Ground, req.Nodes, err = dataio.ReadNodesCSV(in)
		} else {
			req.Points, err = dataio.ReadPointsCSV(in)
		}
		in.Close()
		if err != nil {
			fatal(err)
		}
	}

	var backend client.Client = client.NewLocal()
	switch {
	case *server != "":
		backend = client.NewRemote(*server, client.RemoteOptions{})
	case *listen != "":
		backend, err = acceptFleet(*listen, req)
		if err != nil {
			fatal(err)
		}
	}

	// Ctrl-C / SIGTERM cancel the solve mid-run instead of killing the
	// process between writes. (Installed only now: a coordinator still
	// waiting for its fleet should die on the first signal.)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := backend.Do(ctx, req)
	// Closing before reporting is what releases a daemon fleet: every
	// dpc-site exits on the close frame.
	if cerr := backend.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		fatal(err)
	}

	out, err := openOut(*outPath)
	if err != nil {
		fatal(err)
	}
	if err := dataio.WritePointsCSV(out, res.Centers); err != nil {
		fatal(err)
	}
	out.Close()

	if *assignOut != "" && !*uncFlag {
		f, err := os.Create(*assignOut)
		if err != nil {
			fatal(err)
		}
		a := dataio.Assign(req.Points, res.Centers, res.OutlierBudget, req.Objective == client.Means)
		if err := dataio.WriteAssignmentCSV(f, a); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *report {
		fmt.Fprintf(os.Stderr, "backend: %s  centers: %d  ignorable: %.0f\n",
			res.Backend, len(res.Centers), res.OutlierBudget)
		if res.CostKind != "" {
			fmt.Fprintf(os.Stderr, "objective (%s, %s): %.6g\n", objectiveLabel(req.Objective), res.CostKind, res.Cost)
		}
		fmt.Fprintf(os.Stderr, "rounds: %d  up: %d B  down: %d B\n",
			res.Rounds, res.UpBytes, res.DownBytes)
		if res.SiteBudgets != nil {
			fmt.Fprintf(os.Stderr, "site budgets t_i: %v\n", res.SiteBudgets)
		}
		if ts := res.Tree; ts != nil {
			fmt.Fprintf(os.Stderr, "tree (branch %d): root inbox %d B (star would be %d B)\n",
				ts.Branch, ts.RootUpBytes(), res.UpBytes)
			for i, lv := range ts.Levels {
				fmt.Fprintf(os.Stderr, "  level %d: down %d B  up %d B\n", i, lv.Down, lv.Up)
			}
		}
	}
}

// acceptFleet binds addr and blocks until the fleet req describes has
// dialed in: req.Sites leaf daemons, or under a tree topology the top
// aggregator tier fronting them.
func acceptFleet(addr string, req client.Request) (*client.Cluster, error) {
	var cl *client.ClusterListener
	var err error
	if req.Topology.Enabled() {
		cl, err = client.ListenClusterTree(addr, req.Sites, req.Topology.Branch)
	} else {
		cl, err = client.ListenCluster(addr, req.Sites)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dpc-cluster: listening on %s for a fleet of %d site(s)\n", cl.Addr(), req.Sites)
	return cl.Accept()
}

// uncertainObjective maps the legacy -uncertain objective spellings
// (median, means, centerpp, centerg) to the unified u-* names; already
// unified names pass through. Point-only names ("center") are rejected
// here — passed through they would validate as point objectives and fail
// later with a misleading "needs Points" error.
func uncertainObjective(obj string) (string, error) {
	if strings.HasPrefix(obj, "u-") {
		return obj, nil
	}
	switch obj {
	case "", "median":
		return client.UncertainMedian, nil
	case "means":
		return client.UncertainMeans, nil
	case "centerpp":
		return client.UncertainCenterPP, nil
	case "centerg":
		return client.UncertainCenterG, nil
	}
	return "", fmt.Errorf("uncertain mode supports median|means|centerpp|centerg (or the u-* names), got %q", obj)
}

// objectiveLabel normalizes the report label.
func objectiveLabel(obj string) string {
	if obj == "" {
		return client.Median
	}
	return obj
}

func openIn(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func openOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpc-cluster:", err)
	os.Exit(1)
}
