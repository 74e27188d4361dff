package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoHandlers are sites that reply "site <i> round <r>: <in>"; site 2
// replies with an empty message, to check nil payloads cross every
// backend intact.
func echoHandlers(s int) []Handler {
	hs := make([]Handler, s)
	for i := 0; i < s; i++ {
		i := i
		hs[i] = func(round int, in []byte) ([]byte, error) {
			if i == 2 {
				return nil, nil
			}
			return []byte(fmt.Sprintf("site %d round %d: %s", i, round, in)), nil
		}
	}
	return hs
}

// backend constructs a Transport over the given handlers, plus a cleanup.
type backend struct {
	name string
	make func(t *testing.T, handlers []Handler) Transport
}

func backends() []backend {
	return []backend{
		{name: "loopback", make: func(t *testing.T, handlers []Handler) Transport {
			return NewLoopback(handlers, true)
		}},
		{name: "tcp-pipe", make: func(t *testing.T, handlers []Handler) Transport {
			s := len(handlers)
			coordEnds := make([]net.Conn, s)
			var wg sync.WaitGroup
			for i := 0; i < s; i++ {
				cEnd, sEnd := net.Pipe()
				coordEnds[i] = cEnd
				wg.Add(1)
				go func(i int, conn net.Conn) {
					defer wg.Done()
					site, err := NewSite(conn, i)
					if err != nil {
						t.Errorf("site %d handshake: %v", i, err)
						return
					}
					defer site.Close()
					site.Serve(handlers[i])
				}(i, sEnd)
			}
			tr, err := NewCoordinator(coordEnds, nil)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			t.Cleanup(func() { wg.Wait() })
			return tr
		}},
		{name: "tcp-localhost", make: func(t *testing.T, handlers []Handler) Transport {
			tr, err := NewLocalTCP(handlers)
			if err != nil {
				t.Fatalf("NewLocalTCP: %v", err)
			}
			return tr
		}},
	}
}

// TestConformance runs the same protocol script against every backend and
// demands identical payload behavior.
func TestConformance(t *testing.T) {
	const s = 4
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			tr := b.make(t, echoHandlers(s))
			defer tr.Close()
			if tr.Sites() != s {
				t.Fatalf("Sites() = %d, want %d", tr.Sites(), s)
			}

			// Round 0: no downstream message at all.
			res, err := tr.Gather(context.Background(), 0)
			if err != nil {
				t.Fatalf("round 0: %v", err)
			}
			for i := 0; i < s; i++ {
				want := fmt.Sprintf("site %d round 0: ", i)
				if i == 2 {
					if res.Payloads[i] != nil {
						t.Fatalf("site 2 reply = %q, want nil", res.Payloads[i])
					}
					continue
				}
				if string(res.Payloads[i]) != want {
					t.Fatalf("site %d reply = %q, want %q", i, res.Payloads[i], want)
				}
			}

			// Round 1: broadcast.
			if err := tr.Broadcast(1, []byte("pivot")); err != nil {
				t.Fatal(err)
			}
			res, err = tr.Gather(context.Background(), 1)
			if err != nil {
				t.Fatalf("round 1: %v", err)
			}
			if got := string(res.Payloads[0]); got != "site 0 round 1: pivot" {
				t.Fatalf("broadcast reply = %q", got)
			}
			if len(res.Work) != s {
				t.Fatalf("work entries = %d", len(res.Work))
			}

			// Round 2: targeted send; others get an empty downstream.
			if err := tr.Send(2, 1, []byte("only you")); err != nil {
				t.Fatal(err)
			}
			res, err = tr.Gather(context.Background(), 2)
			if err != nil {
				t.Fatalf("round 2: %v", err)
			}
			if got := string(res.Payloads[1]); got != "site 1 round 2: only you" {
				t.Fatalf("send reply = %q", got)
			}
			if got := string(res.Payloads[3]); got != "site 3 round 2: " {
				t.Fatalf("unsent site reply = %q", got)
			}
		})
	}
}

// TestConformanceDoubleSend: a second downstream message to the same site
// in one round must be rejected by every backend.
func TestConformanceDoubleSend(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			tr := b.make(t, echoHandlers(3))
			defer tr.Close()
			if err := tr.Send(0, 1, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := tr.Send(0, 1, []byte("b")); err == nil {
				t.Fatal("double send accepted")
			}
			if err := tr.Broadcast(0, []byte("c")); err == nil {
				t.Fatal("broadcast over pending send accepted")
			}
			// The round must still complete for the untouched sites.
			if _, err := tr.Gather(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceHandlerError: a failing site must surface as a Gather
// error naming the site, on every backend.
func TestConformanceHandlerError(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			handlers := echoHandlers(3)
			handlers[1] = func(round int, in []byte) ([]byte, error) {
				return nil, fmt.Errorf("kaboom")
			}
			tr := b.make(t, handlers)
			defer tr.Close()
			_, err := tr.Gather(context.Background(), 0)
			if err == nil {
				t.Fatal("handler error swallowed")
			}
			if !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "1") {
				t.Fatalf("error %q does not identify site 1 / cause", err)
			}
		})
	}
}

// TestConformanceWork: compute durations must be measured on the site.
func TestConformanceWork(t *testing.T) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) {
			handlers := []Handler{
				func(round int, in []byte) ([]byte, error) {
					time.Sleep(20 * time.Millisecond)
					return []byte("x"), nil
				},
			}
			tr := b.make(t, handlers)
			defer tr.Close()
			res, err := tr.Gather(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Work[0] < 10*time.Millisecond {
				t.Fatalf("work = %v, want >= 10ms", res.Work[0])
			}
		})
	}
}

// TestFrameRoundTrip covers the framing layer directly.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := header{kind: kindData, round: 7, site: 3, work: 12345}
	if err := writeFrame(&buf, in, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	h, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.kind != in.kind || h.round != in.round || h.site != in.site || h.work != in.work {
		t.Fatalf("header round trip: %+v != %+v", h, in)
	}
	if string(payload) != "payload" {
		t.Fatalf("payload = %q", payload)
	}
	// Empty payload must decode as nil.
	buf.Reset()
	if err := writeFrame(&buf, header{kind: kindData}, nil); err != nil {
		t.Fatal(err)
	}
	if _, payload, err = readFrame(&buf); err != nil || payload != nil {
		t.Fatalf("empty frame: payload=%v err=%v", payload, err)
	}
}

// TestFrameRejectsGarbage: bad magic, bad version, truncation.
func TestFrameRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, header{kind: kindData}, []byte("abc"))
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := readFrame(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestListenerAccept exercises the real listener handshake path including
// out-of-order site arrival.
func TestListenerAccept(t *testing.T) {
	const s = 3
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	var wg sync.WaitGroup
	for _, id := range []int{2, 0, 1} { // arrival order != site order
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			site, err := Dial(addr, id, 5*time.Second)
			if err != nil {
				t.Errorf("site %d: %v", id, err)
				return
			}
			defer site.Close()
			if string(site.Hello()) != "cfg-blob" {
				t.Errorf("site %d hello = %q", id, site.Hello())
			}
			site.Serve(func(round int, in []byte) ([]byte, error) {
				return []byte{byte(id)}, nil
			})
		}(id)
	}
	tr, err := l.Accept(s, []byte("cfg-blob"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Gather(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s; i++ {
		if len(res.Payloads[i]) != 1 || res.Payloads[i][0] != byte(i) {
			t.Fatalf("site %d mapped to payload %v", i, res.Payloads[i])
		}
	}
	tr.Close()
	wg.Wait()
}

// TestRedialStopsOnForeignWelcome: a coordinator that welcomes another
// job-frame version refuses every connection the same way, so Redial
// returns after one accept, naming both markers, instead of redialing in a
// tight loop for as long as the coordinator keeps accepting.
func TestRedialStopsOnForeignWelcome(t *testing.T) {
	const foreign = "dpc-jobs/3"
	l, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	accepts, accepting := 0, make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := l.Accept(1, []byte(foreign))
			if err != nil {
				return
			}
			accepts++
			defer c.Abort()
		}
	}()
	done := make(chan error, 1)
	go func() {
		done <- Redial(l.Addr().String(), 0, 0, func(sc *Site) error {
			return fmt.Errorf("welcome %q refused", sc.Hello())
		})
	}()
	var rerr error
	select {
	case rerr = <-done:
	case <-time.After(5 * time.Second):
	}
	l.Close()
	<-accepting
	if rerr == nil {
		<-done
		t.Fatalf("Redial still redialing after 5s (%d accepts)", accepts)
	}
	if accepts != 1 {
		t.Errorf("%d accepts, want 1", accepts)
	}
	if msg := rerr.Error(); !strings.Contains(msg, foreign) || !strings.Contains(msg, JobsHello) {
		t.Errorf("Redial error %q does not name both %q and %q", msg, foreign, JobsHello)
	}
}

// TestListenerRejectsRogues: garbage connections, out-of-range ids and
// duplicate ids are rejected individually — the legitimate sites still
// complete the handshake and the protocol runs.
func TestListenerRejectsRogues(t *testing.T) {
	const s = 2
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()

	acceptDone := make(chan struct{})
	var tr *Coordinator
	var acceptErr error
	go func() {
		tr, acceptErr = l.Accept(s, nil)
		close(acceptDone)
	}()

	// Rogue 1: raw garbage bytes (a port scanner).
	rogue, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rogue.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	rogue.Close()

	// Rogue 2: well-formed hello with an out-of-range id; must be told why.
	if _, err := Dial(addr, 9, 0); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range site got %v, want rejection naming the range", err)
	}

	// Legit site 0 joins; Dial returning means its handshake completed,
	// so it is registered before the duplicate below arrives.
	site0, err := Dial(addr, 0, 5*time.Second)
	if err != nil {
		t.Fatalf("site 0: %v", err)
	}
	defer site0.Close()

	// Rogue 3: duplicate id 0.
	if _, err := Dial(addr, 0, 0); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate site id got %v, want duplicate rejection", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		site0.Serve(func(round int, in []byte) ([]byte, error) { return []byte{0}, nil })
	}()

	// Legit site 1 completes the roster.
	wg.Add(1)
	go func() {
		defer wg.Done()
		site1, err := Dial(addr, 1, 5*time.Second)
		if err != nil {
			t.Errorf("site 1: %v", err)
			return
		}
		defer site1.Close()
		site1.Serve(func(round int, in []byte) ([]byte, error) { return []byte{1}, nil })
	}()

	<-acceptDone
	if acceptErr != nil {
		t.Fatalf("accept: %v", acceptErr)
	}
	res, err := tr.Gather(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s; i++ {
		if len(res.Payloads[i]) != 1 || res.Payloads[i][0] != byte(i) {
			t.Fatalf("site %d payload %v", i, res.Payloads[i])
		}
	}
	tr.Close()
	wg.Wait()
}

// TestParseKind covers the backend selector.
func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", KindLoopback, true},
		{"loopback", KindLoopback, true},
		{"tcp", KindTCP, true},
		{"udp", "", false},
	} {
		got, err := ParseKind(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseKind(%q) = %v, %v", tc.in, got, err)
		}
	}
}
