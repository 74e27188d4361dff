package client

import (
	"context"
	"fmt"

	"dpc/internal/jobwire"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Cluster answers requests by driving dpc-site daemons over TCP: the
// coordinator side of the protocol runs in this process, the data lives at
// the sites (their shards and distance caches stay warm across requests —
// connection persistence, exactly dpc-server's remote datasets; both are a
// jobwire.Fleet). A one-shot run (dpc-cluster -listen) is Accept, one Do,
// Close. Point requests need nothing but the connected sites; the uncertain
// objectives additionally need req.Ground (the paper's shared ground
// metric) on the coordinator side.
//
// One Cluster serves one request at a time (the transport round contract);
// concurrent Do calls queue. A request cancelled mid-protocol leaves the
// site connections desynchronized, and one that failed at a site (a job
// the site rejected, a lost connection) has a site out of its job loop, so
// the fleet drops the connections without the protocol close and at once
// re-binds the original address for the site daemons to redial (dpc-site
// and ServeSiteLoop retry exactly for this); the next Do waits for them,
// bounded by its context, so a cancelled request or one that failed at a
// site costs one reconnect, not the backend. Close is terminal.
//
// With ListenClusterTree the connected daemons are the top tier of an
// aggregation tree (dpc-site -aggregate, or tree.ServeLoop in-process)
// instead of the leaf sites; job frames and rounds route through the
// aggregators, results stay byte-identical to the flat cluster, and a
// reconnect reaches the leaves: each aggregator aborts its children and
// redials.
type Cluster struct {
	fleet *jobwire.Fleet
}

// ClusterListener is a bound-but-not-yet-connected Cluster backend: the
// address is known (so site daemons can be pointed at it) before Accept
// blocks for them.
type ClusterListener struct {
	l                      *transport.Listener
	direct, leaves, branch int // see jobwire.AcceptFleet
}

// ListenCluster binds addr (e.g. "127.0.0.1:9009", or ":0" for an
// ephemeral port) for `sites` dpc-site daemons.
func ListenCluster(addr string, sites int) (*ClusterListener, error) {
	l, err := transport.Listen(addr, sites)
	if err != nil {
		return nil, err
	}
	return &ClusterListener{l: l, direct: sites, leaves: sites}, nil
}

// ListenClusterTree binds addr for an aggregation-tree fleet of `sites`
// leaf daemons under branching factor branch: the processes expected to
// dial in are the tree's top aggregator tier (dpc-site -aggregate, ids
// 0..d-1 per tree.Tiers), each fronting its subtree of leaves. With
// sites <= branch the tree degenerates to ListenCluster.
func ListenClusterTree(addr string, sites, branch int) (*ClusterListener, error) {
	spec := tree.Spec{Tree: true, Branch: branch}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cl := &ClusterListener{direct: sites, leaves: sites}
	if tiers := tree.Tiers(sites, spec.BranchOrDefault()); len(tiers) > 0 {
		cl.direct, cl.branch = tiers[len(tiers)-1], spec.BranchOrDefault()
	}
	var err error
	if cl.l, err = transport.Listen(addr, cl.direct); err != nil {
		return nil, err
	}
	return cl, nil
}

// Addr returns the bound address sites should dial.
func (cl *ClusterListener) Addr() string { return cl.l.Addr().String() }

// Accept blocks until every expected daemon has joined (they retry
// dialing, so start order does not matter), then returns the connected
// backend. The listener is closed either way.
func (cl *ClusterListener) Accept() (*Cluster, error) {
	f, err := jobwire.AcceptFleet(cl.l, cl.direct, cl.leaves, cl.branch)
	if err != nil {
		return nil, err
	}
	return &Cluster{fleet: f}, nil
}

// Close implements Client: every site receives the protocol close (ending
// its ServeJobs loop) and the sockets shut. Closed is terminal.
func (c *Cluster) Close() error { return c.fleet.Close() }

// Sites returns the number of (leaf) site daemons the protocol runs over.
func (c *Cluster) Sites() int { return c.fleet.Sites() }

// Do implements Client: a job frame re-arms every site with this request's
// configuration, then the standard coordinator drive runs over the live
// sockets.
func (c *Cluster) Do(ctx context.Context, req Request) (*Response, error) {
	if req.Central {
		return nil, fmt.Errorf("client: Central (the Section 3.1 solver) runs on the Local backend only")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	job, err := req.spec().Job()
	if err != nil {
		return nil, err
	}
	res, err := c.fleet.Run(ctx, job, req.Ground)
	if err != nil {
		return nil, err
	}
	// When the request carries coordinator-side data the response reports
	// the true global cost (byte-identical to what Local computes);
	// otherwise the coordinator's own cost stands.
	return respond("cluster", job, req.data(), res), nil
}
