package transport

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Loopback is the in-process backend: sites are Handlers invoked directly,
// one goroutine per site (or sequentially, one site after another, for a
// caller that wants total work rather than wall clock). Payload bytes are
// passed by reference and never copied, so the byte accounting upstream is
// exactly the encoded payload sizes — identical to the simulated star
// network the repository started with.
type Loopback struct {
	handlers []Handler
	parallel bool

	pending [][]byte // downstream message queued per site for the open round
	queued  []bool
	closed  bool
}

// NewLoopback creates an in-process transport over the given site handlers.
// parallel selects whether sites compute concurrently during Gather.
func NewLoopback(handlers []Handler, parallel bool) *Loopback {
	return &Loopback{
		handlers: handlers,
		parallel: parallel,
		pending:  make([][]byte, len(handlers)),
		queued:   make([]bool, len(handlers)),
	}
}

// Sites implements Transport.
func (l *Loopback) Sites() int { return len(l.handlers) }

func (l *Loopback) queue(site int, b []byte) error {
	if l.closed {
		return fmt.Errorf("transport: loopback is closed")
	}
	if site < 0 || site >= len(l.handlers) {
		return fmt.Errorf("transport: no such site %d", site)
	}
	if l.queued[site] {
		return fmt.Errorf("transport: site %d already has a downstream message this round", site)
	}
	l.pending[site] = b
	l.queued[site] = true
	return nil
}

// Broadcast implements Transport.
func (l *Loopback) Broadcast(round int, b []byte) error {
	for i := range l.handlers {
		if err := l.queue(i, b); err != nil {
			return err
		}
	}
	return nil
}

// Send implements Transport.
func (l *Loopback) Send(round, site int, b []byte) error {
	return l.queue(site, b)
}

// Gather implements Transport: every handler runs on its queued downstream
// message (nil when none was sent) and the replies are collected. When ctx
// is cancelled mid-round, Gather returns ctx.Err() right away: the site
// goroutines finish their current compute in the background (handlers are
// not preemptible) but their results are discarded and the transport is
// marked closed so no further round can observe the torn state.
func (l *Loopback) Gather(ctx context.Context, round int) (RoundResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if l.closed {
		return RoundResult{}, fmt.Errorf("transport: loopback is closed")
	}
	if err := ctx.Err(); err != nil {
		l.closed = true
		return RoundResult{}, err
	}
	s := len(l.handlers)
	res := RoundResult{
		Payloads: make([][]byte, s),
		Work:     make([]time.Duration, s),
	}
	errs := make([]error, s)
	pending := l.pending
	runSite := func(i int) {
		t0 := time.Now()
		res.Payloads[i], errs[i] = l.handlers[i](round, pending[i])
		res.Work[i] = time.Since(t0)
	}
	l.pending = make([][]byte, s)
	l.queued = make([]bool, s)
	if l.parallel {
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runSite(i)
			}(i)
		}
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			l.closed = true
			return RoundResult{}, ctx.Err()
		}
	} else {
		for i := 0; i < s; i++ {
			if err := ctx.Err(); err != nil {
				l.closed = true
				return RoundResult{}, err
			}
			runSite(i)
		}
	}
	for i, err := range errs {
		if err != nil {
			return RoundResult{}, fmt.Errorf("transport: site %d round %d: %w", i, round, err)
		}
	}
	return res, nil
}

// Close implements Transport.
func (l *Loopback) Close() error {
	l.closed = true
	return nil
}
