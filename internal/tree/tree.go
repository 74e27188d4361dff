package tree

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dpc/internal/comm"
	"dpc/internal/transport"
)

// Aggregator is the merge role of one interior tree node: it receives each
// round's downstream bytes from its parent, forwards them verbatim to its
// child transport, gathers the children's replies and merges them into one
// batch for the parent. The same Aggregator runs in-process (its Handle
// bound into a parent transport) and inside a dpc-site -aggregate daemon
// (driven by Serve over a real socket), which is what keeps loopback tests
// and TCP deployments on one code path.
type Aggregator struct {
	ctx   context.Context
	child transport.Transport
	inner bool // children are aggregators (their payloads are batches)
}

// NewAggregator builds the merge role over an already-connected child
// transport. inner declares whether the children are themselves aggregators
// (payloads arrive as batches to merge) or leaf sites (payloads are
// protocol messages, carried as they are). ctx bounds the child gathers; nil
// means context.Background().
func NewAggregator(ctx context.Context, child transport.Transport, inner bool) *Aggregator {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Aggregator{ctx: ctx, child: child, inner: inner}
}

// Handle is the aggregator as a transport.Handler: one call per round, in
// strict round order, merging the subtree's replies into a batch.
func (a *Aggregator) Handle(round int, in []byte) ([]byte, error) {
	if err := a.child.Broadcast(round, in); err != nil {
		return nil, fmt.Errorf("tree: aggregator broadcast round %d: %w", round, err)
	}
	res, err := a.child.Gather(a.ctx, round)
	if err != nil {
		return nil, fmt.Errorf("tree: aggregator gather round %d: %w", round, err)
	}
	own := comm.TreeLevel{Down: int64(len(in)) * int64(a.child.Sites())}
	var deeper []comm.TreeLevel
	secs := make([]section, 0, len(res.Payloads))
	for i, p := range res.Payloads {
		own.Up += int64(len(p))
		if !a.inner {
			secs = append(secs, section{work: res.Work[i], data: p})
			continue
		}
		cb, err := decodeBatch(p)
		if err != nil {
			return nil, fmt.Errorf("tree: child %d round %d: %w", i, round, err)
		}
		own.Up -= cb.workBytes
		secs = append(secs, cb.secs...)
		deeper = addLevels(deeper, cb.levels)
	}
	return encodeBatch(batch{levels: append([]comm.TreeLevel{own}, deeper...), secs: secs}), nil
}

// Close closes the child transport (ending the subtree's protocol).
func (a *Aggregator) Close() error { return a.child.Close() }

// Serve drives an aggregator daemon over one parent connection: sc is the
// connection to the parent (coordinator or a higher aggregator), child the
// already-accepted connections to this node's children. Each job frame
// from the parent is forwarded down before that job's rounds, so leaf
// fleets stay warm under the tree exactly as under a star. When the parent
// closes the protocol, so does Serve, for the children; when the parent is
// lost or a job fails, Serve aborts the children without the close frame,
// so they redial (ServeLoop takes them back). inner declares whether the
// children are aggregators themselves (a tree deeper than two levels).
func Serve(sc *transport.Site, child *transport.Coordinator, inner bool) (err error) {
	defer func() {
		if err == nil {
			child.Close()
		} else {
			child.Abort()
		}
	}()
	if string(sc.Hello()) != transport.JobsHello {
		return fmt.Errorf("tree: parent does not speak job frames (welcome %q, want %q)",
			sc.Hello(), transport.JobsHello)
	}
	return sc.ServeJobs(func(job int, blob []byte) (transport.Handler, error) {
		if err := child.StartJob(blob); err != nil {
			return nil, fmt.Errorf("tree: forward job %d: %w", job, err)
		}
		return NewAggregator(context.Background(), child, inner).Handle, nil
	})
}

// ServeLoop is an aggregator daemon (dpc-site -aggregate) as a library
// call: it dials parent as site id and serves it through transport.Redial,
// and for each parent connection accepts its `children` children (global
// ids [base, base+children)) on l, forwards them the parent's welcome
// blob, and runs Serve. l stays open for the loop's whole life, so
// children that Serve aborted redial into it. lost, when non-nil, hears
// each error that ends a parent connection before the loop redials
// (dpc-site logs it, as it does for a leaf). ServeLoop returns nil once
// the parent closes the protocol, the parent's dial error once it stays
// away for timeout, or l's error once l fails. The caller closes l.
func ServeLoop(l *transport.Listener, parent string, id, children, base int, inner bool, timeout time.Duration, lost func(error)) error {
	var lerr error
	err := transport.Redial(parent, id, timeout, func(sc *transport.Site) error {
		child, err := l.AcceptBase(children, base, sc.Hello())
		if err != nil {
			lerr = err
			return nil // l is gone: no child can come back
		}
		err = Serve(sc, child, inner)
		if err != nil && lost != nil {
			lost(err)
		}
		return err
	})
	if lerr != nil {
		return lerr
	}
	return err
}

// Root is the coordinator end of an aggregation tree. It implements
// transport.Transport over an inner transport whose "sites" are the root's
// direct children (aggregators): Broadcast fans the downstream bytes into
// the tree, and Gather splits the children's merged batches back into the
// s per-site payloads in global site order — the very bytes a star would
// have gathered — while recording what physically crossed each level of
// links. Protocol drivers therefore run unchanged; comm.Network picks
// the per-level attribution up through the comm.TreeStatser interface.
type Root struct {
	inner  transport.Transport
	aggs   []*Aggregator // in-process aggregators to close with the tree
	leaves int
	branch int

	mu    sync.Mutex
	stats comm.TreeStats
}

// NewRootOver wraps an inner transport whose sites are aggregator nodes
// (in-process handlers or dpc-site -aggregate daemons) merging `leaves`
// real sites in global order under branching factor branch.
func NewRootOver(inner transport.Transport, leaves, branch int) (*Root, error) {
	if leaves <= 0 {
		return nil, fmt.Errorf("tree: %d leaves", leaves)
	}
	if branch < 2 {
		return nil, fmt.Errorf("tree: branching factor %d (want >= 2)", branch)
	}
	if inner.Sites() > leaves {
		return nil, fmt.Errorf("tree: %d direct children for %d leaves", inner.Sites(), leaves)
	}
	return &Root{
		inner:  inner,
		leaves: leaves,
		branch: branch,
		stats:  comm.TreeStats{Branch: branch, Leaves: leaves, Levels: []comm.TreeLevel{{}}},
	}, nil
}

// Sites implements Transport: the number of real (leaf) sites.
func (r *Root) Sites() int { return r.leaves }

// Broadcast implements Transport, fanning b to every leaf through the
// aggregators and accounting the root's own outbox.
func (r *Root) Broadcast(round int, b []byte) error {
	r.mu.Lock()
	r.stats.Levels[0].Down += int64(len(b)) * int64(r.inner.Sites())
	r.mu.Unlock()
	return r.inner.Broadcast(round, b)
}

// Send implements Transport. Per-site downstream messages would need the
// aggregators to route addressed frames; no protocol driver in the
// repository uses Send, so the tree rejects it loudly rather than carrying
// dead routing code.
func (r *Root) Send(round, site int, b []byte) error {
	return fmt.Errorf("tree: per-site Send is not supported over an aggregation tree (round %d, site %d)", round, site)
}

// Gather implements Transport: the direct children's batches are split
// into the per-site payloads of the round, in global site order.
func (r *Root) Gather(ctx context.Context, round int) (transport.RoundResult, error) {
	res, err := r.inner.Gather(ctx, round)
	if err != nil {
		return transport.RoundResult{}, err
	}
	out := transport.RoundResult{
		Payloads: make([][]byte, 0, r.leaves),
		Work:     make([]time.Duration, 0, r.leaves),
	}
	var inbox int64
	var deeper []comm.TreeLevel
	for i, p := range res.Payloads {
		bt, err := decodeBatch(p)
		if err != nil {
			return transport.RoundResult{}, fmt.Errorf("tree: root child %d round %d: %w", i, round, err)
		}
		inbox += int64(len(p)) - bt.workBytes
		deeper = addLevels(deeper, bt.levels)
		for _, s := range bt.secs {
			out.Payloads = append(out.Payloads, s.data)
			out.Work = append(out.Work, s.work)
		}
	}
	if len(out.Payloads) != r.leaves {
		return transport.RoundResult{}, fmt.Errorf("tree: round %d carried %d site payloads, want %d", round, len(out.Payloads), r.leaves)
	}
	r.mu.Lock()
	r.stats.Levels[0].Up += inbox
	rest := r.stats.Levels[1:]
	rest = addLevels(rest, deeper)
	r.stats.Levels = append(r.stats.Levels[:1], rest...)
	r.mu.Unlock()
	return out, nil
}

// StartJob forwards a job frame into the tree (persistent-site fleets).
func (r *Root) StartJob(blob []byte) error {
	js, ok := r.inner.(interface{ StartJob(blob []byte) error })
	if !ok {
		return fmt.Errorf("tree: inner transport %T cannot start jobs", r.inner)
	}
	return js.StartJob(blob)
}

// Close implements Transport, closing the inner transport first (so close
// frames reach the aggregators) and then every in-process aggregator's
// child transport, top level down.
func (r *Root) Close() error {
	first := r.inner.Close()
	for _, a := range r.aggs {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TreeStats implements comm.TreeStatser.
func (r *Root) TreeStats() (comm.TreeStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Levels = append([]comm.TreeLevel(nil), r.stats.Levels...)
	return s, true
}

// NewLocal builds the transport for in-process site handlers under the
// requested topology: the plain star when spec is star (or the site count
// does not exceed the branching factor, where a tree degenerates to the
// star), otherwise a bottom-up b-ary aggregation tree — contiguous groups
// of at most branch handlers behind one aggregator per group, repeated
// until at most branch nodes face the root. kind applies to every level:
// with transport.KindTCP each group crosses a real framed localhost socket,
// so the tree is exercised over the same wire bytes a daemon deployment
// ships.
func NewLocal(ctx context.Context, kind transport.Kind, handlers []transport.Handler, parallel bool, spec Spec) (transport.Transport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	branch := spec.BranchOrDefault()
	if !spec.Enabled() || len(handlers) <= branch {
		return transport.NewLocal(kind, handlers, parallel)
	}
	var aggs []*Aggregator
	fail := func(err error) (transport.Transport, error) {
		for _, a := range aggs {
			a.Close()
		}
		return nil, err
	}
	cur := handlers
	inner := false
	for len(cur) > branch {
		sizes := groupSizes(len(cur), branch)
		next := make([]transport.Handler, 0, len(sizes))
		off := 0
		for _, sz := range sizes {
			child, err := transport.NewLocal(kind, cur[off:off+sz], parallel)
			if err != nil {
				return fail(err)
			}
			a := NewAggregator(ctx, child, inner)
			aggs = append(aggs, a)
			next = append(next, a.Handle)
			off += sz
		}
		cur = next
		inner = true
	}
	top, err := transport.NewLocal(kind, cur, parallel)
	if err != nil {
		return fail(err)
	}
	root, err := NewRootOver(top, len(handlers), branch)
	if err != nil {
		top.Close()
		return fail(err)
	}
	root.aggs = aggs
	return root, nil
}
