package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// newGroup builds one connected coordinator group over real sockets: one
// serving goroutine per handler. A nil handler is a dead member — it
// completes the handshake and then drops its connection, the fate of a
// site process that crashes right after joining.
func newGroup(t *testing.T, handlers ...Handler) (*Coordinator, func()) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", len(handlers))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	var wg sync.WaitGroup
	for i, h := range handlers {
		wg.Add(1)
		go func(i int, h Handler) {
			defer wg.Done()
			site, err := Dial(addr, i, 5*time.Second)
			if err != nil {
				t.Errorf("site %d dial: %v", i, err)
				return
			}
			if h == nil {
				site.Close() // dead member: joined, then gone
				return
			}
			defer site.Close()
			site.Serve(h) // serve errors are the test's doing (teardown)
		}(i, h)
	}
	coord, err := l.Accept(len(handlers), nil)
	if err != nil {
		t.Fatal(err)
	}
	return coord, wg.Wait
}

// tag returns a handler that replies with a fixed group/site label, so
// gather order is observable.
func tag(group, site int) Handler {
	return func(round int, in []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("g%d-s%d:%s", group, site, in)), nil
	}
}

// TestJoinGroupOrder pins Join's flat-site contract: replies concatenate
// in group order on every round, Send routes by global index, and
// out-of-range sites are rejected.
func TestJoinGroupOrder(t *testing.T) {
	g0, join0 := newGroup(t, tag(0, 0), tag(0, 1))
	g1, join1 := newGroup(t, tag(1, 0), tag(1, 1), tag(1, 2))
	m := Join(g0, g1)
	if m.Sites() != 5 {
		t.Fatalf("Sites() = %d, want 5", m.Sites())
	}

	// Per-site sends route by global index (one downstream message per
	// site per round is the transport contract).
	for i := 0; i < 5; i++ {
		if err := m.Send(0, i, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Gather(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"g0-s0:p0", "g0-s1:p1", "g1-s0:p2", "g1-s1:p3", "g1-s2:p4"}
	if len(res.Payloads) != len(want) {
		t.Fatalf("gathered %d payloads, want %d", len(res.Payloads), len(want))
	}
	for i, p := range res.Payloads {
		if string(p) != want[i] {
			t.Fatalf("payload %d = %q, want %q", i, p, want[i])
		}
	}
	// Broadcast fans the same bytes to every group on the next round.
	if err := m.Broadcast(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	res, err = m.Gather(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"g0-s0:b", "g0-s1:b", "g1-s0:b", "g1-s1:b", "g1-s2:b"}
	for i, p := range res.Payloads {
		if string(p) != want[i] {
			t.Fatalf("broadcast payload %d = %q, want %q", i, p, want[i])
		}
	}
	if err := m.Send(1, 5, nil); err == nil {
		t.Fatalf("Send to out-of-range site succeeded")
	}
	m.Close()
	join0()
	join1()
}

// TestJoinDeadMember: one dead member in one group fails the whole
// logical gather loudly — attributed to its global site — instead of
// returning a short or reordered payload set.
func TestJoinDeadMember(t *testing.T) {
	g0, join0 := newGroup(t, tag(0, 0), tag(0, 1))
	g1, join1 := newGroup(t, tag(1, 0), nil) // member 1 of group 1 is dead
	m := Join(g0, g1)
	err := m.Broadcast(0, []byte("b"))
	if err == nil {
		_, err = m.Gather(context.Background(), 0)
	}
	if err == nil {
		t.Fatalf("round over a dead member succeeded")
	}
	if !strings.Contains(err.Error(), "site 3") {
		t.Fatalf("error %q does not attribute the failure to site 3", err)
	}
	m.Close()
	join0()
	join1()
}

// TestJoinHungMember: a member that never replies must not hang the
// caller past its context — the parallel site reads all honor
// cancellation, healthy groups included.
func TestJoinHungMember(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hung := func(round int, in []byte) ([]byte, error) {
		<-release
		return nil, nil
	}
	g0, _ := newGroup(t, tag(0, 0))
	g1, _ := newGroup(t, tag(1, 0), hung)
	m := Join(g0, g1)
	defer m.Close()
	if err := m.Broadcast(0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := m.Gather(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Gather returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Gather took %v to notice the cancellation", elapsed)
	}
}
