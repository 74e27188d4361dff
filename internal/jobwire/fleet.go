package jobwire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dpc/internal/kcenter"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/tree"
	"dpc/internal/uncertain"
)

// Fleet is the coordinator's end of persistent site daemons (dpc-site, or
// client.ServeSiteLoop in-process), the one owner of their connections
// behind client.Cluster and dpc-server's remote datasets. It holds one or
// more connection groups, each accepted on its own listen address under the
// next contiguous range of global site ids and joined into one flat site
// set (transport.Join); with a branching factor the connected daemons are
// the top aggregator tier of a tree (tree.NewRootOver).
//
// A Fleet runs one job at a time; concurrent Runs queue, each bounded by
// its context. So one kcenter.Scratch, kept for the fleet's life, serves
// the coordinator solve of every (k,t)-center job it runs; its sites being
// deterministic, a repeated job's preclusters repeat too, and the scratch
// reuses the ball index it built for them. A job cancelled
// mid-protocol leaves the connections desynchronized (site replies for it
// are still in flight), and a job that failed on the wire (a site's error
// frame, a lost connection) has a site out of its job loop; either way the
// fleet aborts the connections without the protocol close — the daemons
// redial instead of exiting — and at once re-binds every group's address
// to accept them in the background; the next Run waits for them, bounded
// by its context. A job the coordinator rejects after a complete gather
// keeps the connections. Close is the clean, terminal end: every daemon
// gets the protocol close.
type Fleet struct {
	run     chan struct{}          // one token, held by Run, Close and AddGroup's join
	add     sync.Mutex             // serializes AddGroup, which accepts without the token
	life    context.Context        // ends at Close; a Run waiting for daemons gives up
	end     context.CancelFunc     // ends life
	branch  int                    // aggregation-tree branching factor; 0 = flat star
	coord   *transport.Coordinator // the joined groups; nil after an abort
	tr      transport.Transport    // coord, or the tree root over it
	groups  []group
	rejoins []*rejoin       // after an abort: each group's background re-accept
	scratch kcenter.Scratch // lent to every point job under the run token (core.Config.CenterScratch)

	// leaf sites the protocol runs over, and len(groups): Sites and Groups
	// read them without waiting for a job.
	leaves, ngroups atomic.Int64
}

var errClosed = errors.New("jobwire: fleet is closed")

// group is one connection group: where its daemons dial, how many there
// are, and the global id of its first site.
type group struct {
	addr        string
	sites, base int
}

// AcceptFleet accepts the first group of a fleet on l — `sites` daemons
// with ids [0, sites) — and closes l either way. branch > 0 makes them the
// top aggregator tier of a tree over `leaves` leaf sites; a star fleet has
// leaves == sites.
func AcceptFleet(l *transport.Listener, sites, leaves, branch int) (*Fleet, error) {
	f := &Fleet{run: make(chan struct{}, 1), branch: branch, groups: []group{{addr: l.Addr().String(), sites: sites}}}
	f.life, f.end = context.WithCancel(context.Background())
	f.leaves.Store(int64(leaves))
	f.ngroups.Store(1)
	coord, err := accept(l, f.groups[0])
	if err != nil {
		return nil, err
	}
	if err := f.attach(coord); err != nil {
		coord.Close()
		return nil, err
	}
	return f, nil
}

// accept accepts gr's daemons on l and closes l.
func accept(l *transport.Listener, gr group) (*transport.Coordinator, error) {
	defer l.Close()
	if gr.sites <= 0 {
		return nil, fmt.Errorf("jobwire: a group of %d sites", gr.sites)
	}
	return l.AcceptBase(gr.sites, gr.base, []byte(transport.JobsHello))
}

// attach makes coord the fleet's connections, under the tree root when the
// fleet has a branching factor.
func (f *Fleet) attach(coord *transport.Coordinator) error {
	var tr transport.Transport = coord
	if f.branch > 0 {
		root, err := tree.NewRootOver(coord, f.Sites(), f.branch)
		if err != nil {
			return err
		}
		tr = root
	}
	f.coord, f.tr = coord, tr
	return nil
}

// AddGroup accepts `sites` more daemons of a star fleet on l and closes l
// either way. Their ids continue the fleet's, [Sites(), Sites()+sites): the
// -site ids the daemons dial with. Jobs keep running on the existing groups
// during the accept; the new group joins between two jobs.
func (f *Fleet) AddGroup(l *transport.Listener, sites int) error {
	f.add.Lock()
	defer f.add.Unlock()
	if f.life.Err() != nil || f.branch > 0 {
		l.Close()
		return errors.New("jobwire: only an open star fleet takes another group")
	}
	gr := group{addr: l.Addr().String(), sites: sites, base: f.Sites()}
	coord, err := accept(l, gr)
	if err != nil {
		return err
	}
	f.run <- struct{}{}
	defer func() { <-f.run }()
	if f.life.Err() != nil {
		coord.Close()
		return errClosed
	}
	if f.coord == nil { // reconnecting: the group joins with the others
		f.rejoins = append(f.rejoins, finished(coord, nil))
	} else {
		f.coord = transport.Join(f.coord, coord)
		f.tr = f.coord
	}
	f.groups = append(f.groups, gr)
	f.leaves.Add(int64(sites))
	f.ngroups.Add(1)
	return nil
}

// Sites returns the number of leaf sites the protocol runs over.
func (f *Fleet) Sites() int { return int(f.leaves.Load()) }

// Groups returns the number of connection groups.
func (f *Fleet) Groups() int { return int(f.ngroups.Load()) }

// Run arms every site with j's frame, then runs the coordinator half of j
// over the fleet (RunOver); g is the ground set uncertain jobs need. A
// fleet aborted by an earlier cancelled job waits for its daemons first. A
// job that cannot run — an uncertain job without its ground set — fails
// before any site has been armed.
func (f *Fleet) Run(ctx context.Context, j Job, g *uncertain.Ground) (protocol.Result, error) {
	if j.Kind != KindPoint && g == nil {
		return protocol.Result{}, fmt.Errorf("jobwire: %v job needs Ground (the shared ground metric) on the coordinator", j.Kind)
	}
	blob, err := Encode(j)
	if err != nil {
		return protocol.Result{}, err
	}
	select {
	case f.run <- struct{}{}:
	default: // a job in flight: queue behind it for as long as ctx allows
		select {
		case f.run <- struct{}{}:
		case <-ctx.Done():
			return protocol.Result{}, ctx.Err()
		}
	}
	defer func() { <-f.run }()
	if f.life.Err() != nil {
		return protocol.Result{}, errClosed
	}
	if f.coord == nil {
		if err := f.reconnect(ctx); err != nil {
			return protocol.Result{}, fmt.Errorf("jobwire: fleet reconnect: %w", err)
		}
	}
	var res protocol.Result
	j.Core.CenterScratch = &f.scratch
	err = f.coord.StartJob(blob)
	if err == nil {
		res, err = j.RunOver(ctx, f.tr, g)
	}
	if err != nil && (ctx.Err() != nil || f.coord.Broken()) {
		f.drop(f.coord)
	}
	return res, err
}

// drop aborts coord, the fleet's connections, and re-binds every group's
// address at once, so the redialing daemons land while their dial retry
// lasts (dpc-site's -timeout), however long the next job takes to come.
func (f *Fleet) drop(coord *transport.Coordinator) {
	coord.Abort()
	f.coord, f.tr = nil, nil
	f.rejoins = make([]*rejoin, len(f.groups))
	for i, gr := range f.groups {
		f.rejoins[i] = rebind(gr)
	}
}

// reconnect waits, bounded by ctx, for every group's re-accept and joins
// them. A group whose re-accept failed is re-bound for the next Run.
func (f *Fleet) reconnect(ctx context.Context) error {
	coords := make([]*transport.Coordinator, len(f.rejoins))
	for i, r := range f.rejoins {
		select {
		case <-r.done:
		case <-ctx.Done():
			return ctx.Err()
		case <-f.life.Done():
			return errClosed
		}
		if r.err != nil {
			f.rejoins[i] = rebind(f.groups[i])
			return r.err
		}
		coords[i] = r.coord
	}
	f.rejoins = nil
	coord := transport.Join(coords...)
	if err := f.attach(coord); err != nil {
		f.drop(coord)
		return err
	}
	return nil
}

// rejoin is one group's re-accept after an abort; coord and err are set
// once done is closed.
type rejoin struct {
	l     *transport.Listener
	done  chan struct{}
	coord *transport.Coordinator
	err   error
}

// rebind listens on gr's address again and accepts its redialing daemons
// in the background.
func rebind(gr group) *rejoin {
	l, err := transport.Listen(gr.addr, gr.sites)
	if err != nil {
		return finished(nil, err)
	}
	r := &rejoin{l: l, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.coord, r.err = accept(l, gr)
	}()
	return r
}

// finished is a rejoin whose outcome is already known.
func finished(coord *transport.Coordinator, err error) *rejoin {
	r := &rejoin{done: make(chan struct{}), coord: coord, err: err}
	close(r.done)
	return r
}

// Close sends every connected daemon the protocol close, those a re-accept
// has taken included, and shuts the sockets, after any job in flight; a Run
// waiting for redialing daemons gives up. It drops the (k,t)-center scratch.
// Closed is terminal.
func (f *Fleet) Close() error {
	f.end()
	f.run <- struct{}{}
	defer func() { <-f.run }()
	f.scratch = kcenter.Scratch{}
	var errs error
	for _, r := range f.rejoins {
		if r.l != nil {
			r.l.Close() // the accept ends, closing the daemons it took
		}
		<-r.done
		if r.coord != nil {
			errs = errors.Join(errs, r.coord.Close())
		}
	}
	f.rejoins = nil
	if f.coord != nil {
		errs = errors.Join(errs, f.coord.Close())
		f.coord, f.tr = nil, nil
	}
	return errs
}
