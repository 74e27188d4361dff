package client

import (
	"context"
	"fmt"
	"sync"

	"dpc/internal/jobwire"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// Cluster answers requests by driving dpc-site daemons over TCP: the
// coordinator side of the protocol runs in this process, the data lives at
// the sites (their shards and distance caches stay warm across requests —
// connection persistence, exactly dpc-server's remote datasets). A one-shot
// run (dpc-cluster -listen) is Accept, one Do, Close. Point requests need
// nothing but the connected sites; the uncertain objectives additionally
// need req.Ground (the paper's shared ground metric) on the coordinator
// side.
//
// One Cluster serves one request at a time (the transport round contract);
// concurrent Do calls serialize. A request cancelled mid-protocol leaves
// the site connections desynchronized, so the backend drops them — and the
// next Do reconnects lazily: it re-binds the original address and waits for
// the site daemons to redial (dpc-site retries exactly for this), so one
// cancelled request costs one reconnect, not the backend.
//
// With ListenClusterTree the connected daemons are the top tier of an
// aggregation tree (dpc-site -aggregate) instead of the leaf sites; job
// frames and rounds route through the aggregators and results stay
// byte-identical to the flat cluster.
type Cluster struct {
	mu     sync.Mutex
	coord  jobwire.Fleet // *transport.Coordinator, or *tree.Root over one for a tree cluster
	addr   string        // resolved listen address, for lazy reconnects
	direct int           // connections accepted (leaf sites, or the top aggregator tier)
	leaves int           // leaf site count the protocol runs over
	branch int           // aggregation-tree branching factor; 0 = flat star
	broken bool          // connections dropped (cancelled mid-protocol); reconnectable
	closed bool          // Close called; terminal
}

// ClusterListener is a bound-but-not-yet-connected Cluster backend: the
// address is known (so site daemons can be pointed at it) before Accept
// blocks for them.
type ClusterListener struct {
	l      *transport.Listener
	direct int
	leaves int
	branch int
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
	if err := (tree.Spec{Tree: true, Branch: branch}).Validate(); err != nil {
		return nil, err
	}
	branchEff := tree.Spec{Tree: true, Branch: branch}.BranchOrDefault()
	direct := sites
	treeBranch := 0
	if tiers := tree.Tiers(sites, branchEff); len(tiers) > 0 {
		direct = tiers[len(tiers)-1]
		treeBranch = branchEff
	}
	l, err := transport.Listen(addr, direct)
	if err != nil {
		return nil, err
	}
	return &ClusterListener{l: l, direct: direct, leaves: sites, branch: treeBranch}, nil
}

// Addr returns the bound address sites should dial.
func (cl *ClusterListener) Addr() string { return cl.l.Addr().String() }

// Accept blocks until every expected daemon has joined (they retry
// dialing, so start order does not matter), then returns the connected
// backend. The listener is closed either way.
func (cl *ClusterListener) Accept() (*Cluster, error) {
	defer cl.l.Close()
	c := &Cluster{
		addr:   cl.l.Addr().String(),
		direct: cl.direct,
		leaves: cl.leaves,
		branch: cl.branch,
	}
	coord, err := cl.l.Accept(cl.direct, []byte(transport.JobsHello))
	if err != nil {
		return nil, err
	}
	c.coord, err = c.wrap(coord)
	if err != nil {
		coord.Close()
		return nil, err
	}
	return c, nil
}

// wrap builds the cluster's transport over freshly accepted connections.
func (c *Cluster) wrap(coord *transport.Coordinator) (jobwire.Fleet, error) {
	if c.branch == 0 {
		return coord, nil
	}
	return tree.NewRootOver(coord, c.leaves, c.branch)
}

// Close implements Client: every site receives the protocol close (ending
// its ServeJobs loop) and the sockets shut. Closed is terminal; a broken
// backend reconnects, a closed one does not.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.broken || c.coord == nil {
		return nil
	}
	return c.coord.Close()
}

// Sites returns the number of (leaf) site daemons the protocol runs over.
func (c *Cluster) Sites() int { return c.leaves }

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

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("client: cluster backend is closed")
	}
	if c.broken {
		if err := c.reconnect(ctx); err != nil {
			return nil, fmt.Errorf("client: cluster reconnect: %w", err)
		}
	}

	res, err := job.RunFleet(ctx, c.coord, req.Ground)
	if err != nil {
		return nil, c.fail(ctx, err)
	}
	// When the request carries coordinator-side data the response reports
	// the true global cost (byte-identical to what Local computes);
	// otherwise the coordinator's own cost stands.
	return respond("cluster", job, req.data(), res), nil
}

// fail handles a protocol error: a context cancellation leaves the
// connections desynchronized mid-round (site replies for this run are
// still in flight), so the backend drops them — abruptly, without the
// protocol close frame, so persistent daemons treat it as a connection
// loss and redial rather than exiting. The next Do reconnects.
func (c *Cluster) fail(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		c.broken = true
		if ab, ok := c.coord.(interface{ Abort() error }); ok {
			ab.Abort()
		} else {
			c.coord.Close()
		}
	}
	return err
}

// reconnect re-establishes a broken backend: re-bind the original address
// and wait for the expected daemons to redial (dpc-site loops back to
// dialing when its connection drops). Called with c.mu held; ctx
// bounds the wait.
func (c *Cluster) reconnect(ctx context.Context) error {
	l, err := transport.Listen(c.addr, c.direct)
	if err != nil {
		return err
	}
	type accepted struct {
		coord *transport.Coordinator
		err   error
	}
	ch := make(chan accepted, 1)
	go func() {
		coord, err := l.Accept(c.direct, []byte(transport.JobsHello))
		ch <- accepted{coord, err}
	}()
	var a accepted
	select {
	case <-ctx.Done():
		l.Close() // unblocks Accept
		a = <-ch
		if a.coord != nil {
			a.coord.Close()
		}
		return ctx.Err()
	case a = <-ch:
		l.Close()
	}
	if a.err != nil {
		return a.err
	}
	coord, err := c.wrap(a.coord)
	if err != nil {
		a.coord.Close()
		return err
	}
	c.coord = coord
	c.broken = false
	return nil
}
