package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// site-side and coordinator-side halves of the TCP backend. The lifecycle:
//
//	coordinator                       sites (one process or goroutine each)
//	-----------                       ----------------------------------
//	Listen(addr, s)
//	                                  Dial(addr, i)   -> hello{site: i}
//	Accept(hello) -> welcome{hello}   ServeJobs(factory)
//	StartJob(blob) -> job frame,      handler = factory(job, blob)
//	                  buffered
//	Broadcast/Send/Gather  <-data->   handler(round, in)
//	Close          -> close frame     ServeJobs returns nil
//
// A job frame leaves with the next frame written to its site, round 0's
// first data frame or the close frame, in one write.
//
// The welcome frame's payload is a blob chosen by the coordinator: the
// JobsHello protocol marker, after which each run's configuration arrives
// in a job frame (StartJob / ServeJobs), so all processes provably run the
// same protocol parameters.

// Listener accepts site connections for one coordinator run.
type Listener struct {
	ln net.Listener
}

// handshakeTimeout bounds how long one connecting socket may take to
// deliver its hello frame. Without it a slow-loris connection (or a
// half-open scan) would park the accept loop on a blocking read and
// starve the legitimate sites behind it.
const handshakeTimeout = 10 * time.Second

// Listen starts listening for sites on addr (e.g. "127.0.0.1:9009" or
// ":0" for an ephemeral port).
func Listen(addr string, sites int) (*Listener, error) {
	if sites <= 0 {
		return nil, fmt.Errorf("transport: need at least one site, got %d", sites)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting; it does not touch already-accepted connections.
func (l *Listener) Close() error { return l.ln.Close() }

// Accept blocks until every site id in [0, sites) has dialed in and
// completed the handshake, then returns the connected Transport. hello is
// delivered verbatim to every site in its welcome frame.
//
// A connection that fails the handshake — garbage bytes, an out-of-range
// or duplicate site id — is rejected individually (with a best-effort
// error frame, so a misconfigured dpc-site prints why) and Accept keeps
// waiting; a port scanner or one mistyped -site flag cannot tear down the
// legitimate sites that already joined. Accept returns an error only when
// the listener itself fails (e.g. it was closed).
func (l *Listener) Accept(sites int, hello []byte) (*Coordinator, error) {
	return l.AcceptBase(sites, 0, hello)
}

// AcceptBase is Accept for an interior node of an aggregation tree: the
// expected site ids are the contiguous global range [base, base+sites)
// instead of [0, sites). Sites keep their fleet-wide identity (which their
// seeds and the protocol's pivot comparisons derive from) while dialing
// whichever aggregator owns their group; connection slot i holds site
// base+i, and the returned Coordinator's Gather yields payloads in global
// site order.
func (l *Listener) AcceptBase(sites, base int, hello []byte) (*Coordinator, error) {
	if base < 0 {
		return nil, fmt.Errorf("transport: negative site id base %d", base)
	}
	c := newCoordinator(sites)
	for joined := 0; joined < sites; {
		conn, err := l.ln.Accept()
		if err != nil {
			c.Close()
			return nil, err
		}
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
		if err := c.admit(conn, base, hello); err != nil {
			conn.Close()
			continue
		}
		conn.SetDeadline(time.Time{}) // rounds have no transport deadline
		joined++
	}
	return c, nil
}

// NewCoordinator performs the coordinator-side handshake over
// pre-established connections — net.Pipe in tests, or sockets accepted by
// other means — and returns the connected Transport. Each conn must carry
// a hello frame announcing a distinct site id in [0, len(conns)); hello is
// shipped back verbatim in every welcome frame.
func NewCoordinator(conns []net.Conn, hello []byte) (*Coordinator, error) {
	c := newCoordinator(len(conns))
	for _, conn := range conns {
		if err := c.admit(conn, 0, hello); err != nil {
			for _, conn := range conns {
				conn.Close()
			}
			return nil, fmt.Errorf("transport: handshake: %w", err)
		}
	}
	return c, nil
}

func newCoordinator(sites int) *Coordinator {
	return &Coordinator{
		conns: make([]net.Conn, sites),
		rd:    make([]*bufio.Reader, sites),
		wr:    make([]*bufio.Writer, sites),
		sent:  make([]bool, sites),
	}
}

// admit is the coordinator's half of one site's handshake: it reads the
// site's hello, checks that its id is in [base, base+Sites()) and not yet
// taken, welcomes it with hello and slots its connection. A refused site
// gets an error frame saying why, best effort; the caller closes conn on
// any error.
func (c *Coordinator) admit(conn net.Conn, base int, hello []byte) error {
	rd, wr := bufio.NewReader(conn), bufio.NewWriter(conn)
	h, _, err := readFrame(rd)
	id := int(h.site)
	slot := id - base
	switch {
	case err != nil:
		err = fmt.Errorf("bad handshake: %v", err)
	case h.kind != kindHello:
		err = fmt.Errorf("unexpected frame kind %d, want hello", h.kind)
	case slot < 0 || slot >= len(c.conns):
		err = fmt.Errorf("site id %d out of range [%d,%d)", id, base, base+len(c.conns))
	case c.conns[slot] != nil:
		err = fmt.Errorf("duplicate site id %d", id)
	}
	if err != nil {
		writeFrame(wr, header{kind: kindError}, []byte(err.Error()))
		wr.Flush()
		return err
	}
	if err := writeFrame(wr, header{kind: kindWelcome}, hello); err != nil {
		return err
	}
	if err := wr.Flush(); err != nil {
		return err
	}
	c.conns[slot], c.rd[slot], c.wr[slot] = conn, rd, wr
	return nil
}

// Coordinator is the coordinator end of a TCP star network; it implements
// Transport over one socket per site.
type Coordinator struct {
	conns  []net.Conn
	rd     []*bufio.Reader
	wr     []*bufio.Writer
	sent   []bool // downstream message already written this round
	broken bool   // a frame failed on the wire; see Broken
}

// Sites implements Transport.
func (c *Coordinator) Sites() int { return len(c.conns) }

// Join concatenates connected coordinators into one: its sites are the
// arguments' sites in argument order, so groups accepted with AcceptBase at
// consecutive bases answer in global site order. Its Gather reads every
// site in parallel, whichever group it came from. The arguments must not
// be used afterwards.
func Join(cs ...*Coordinator) *Coordinator {
	j := &Coordinator{}
	for _, c := range cs {
		j.conns = append(j.conns, c.conns...)
		j.rd = append(j.rd, c.rd...)
		j.wr = append(j.wr, c.wr...)
		j.sent = append(j.sent, c.sent...)
	}
	return j
}

func (c *Coordinator) writeDown(round, site int, b []byte) error {
	if site < 0 || site >= len(c.conns) {
		return fmt.Errorf("transport: no such site %d", site)
	}
	if c.sent[site] {
		return fmt.Errorf("transport: site %d already has a downstream message this round", site)
	}
	h := header{kind: kindData, round: uint32(round)}
	if err := writeFrame(c.wr[site], h, b); err != nil {
		c.broken = true
		return fmt.Errorf("transport: send to site %d: %w", site, err)
	}
	if err := c.wr[site].Flush(); err != nil {
		c.broken = true
		return fmt.Errorf("transport: send to site %d: %w", site, err)
	}
	c.sent[site] = true
	return nil
}

// Broadcast implements Transport.
func (c *Coordinator) Broadcast(round int, b []byte) error {
	for i := range c.conns {
		if err := c.writeDown(round, i, b); err != nil {
			return err
		}
	}
	return nil
}

// Send implements Transport.
func (c *Coordinator) Send(round, site int, b []byte) error {
	return c.writeDown(round, site, b)
}

// Gather implements Transport: sites that received no downstream message
// this round get an empty one, then one reply frame is read per site, in
// site order, whatever order they arrive in. Cancelling ctx aborts the
// blocking reads by expiring the sockets' read deadlines; Gather
// then returns ctx.Err() and the connections are no longer usable for
// further rounds (Close still delivers the close frame best-effort).
func (c *Coordinator) Gather(ctx context.Context, round int) (RoundResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	s := len(c.conns)
	for i := 0; i < s; i++ {
		if !c.sent[i] {
			if err := c.writeDown(round, i, nil); err != nil {
				return RoundResult{}, err
			}
		}
		c.sent[i] = false
	}
	res := RoundResult{
		Payloads: make([][]byte, s),
		Work:     make([]time.Duration, s),
	}
	// A cancellation that raced an earlier round's finish may have expired
	// the read deadlines after that round's reads (its Gather succeeded);
	// clear them so this round starts clean.
	for _, conn := range c.conns {
		if conn != nil {
			conn.SetReadDeadline(time.Time{})
		}
	}
	// Cancelling ctx expires every site socket's read deadline, unblocking
	// the reads below. The expiry runs, in a goroutine of its own, only once
	// ctx is done, so a round whose context is not cancelled starts no
	// goroutine for it. Gather stops it before returning and, if it had
	// already started, waits for it to finish, so no deadline write
	// outlives the round.
	var expiring sync.WaitGroup
	expiring.Add(1)
	stop := context.AfterFunc(ctx, func() {
		defer expiring.Done()
		now := time.Now()
		for _, conn := range c.conns {
			if conn != nil {
				conn.SetReadDeadline(now)
			}
		}
	})
	defer func() {
		if !stop() {
			expiring.Wait()
		}
	}()
	// One reader takes the replies in site order: they arrive in any
	// order, but each waits in its socket until read, and the round needs
	// them all, so reading the first that has not arrived yet costs no more
	// than waiting for it in parallel, and takes fewer wake-ups.
	var failed error
	for i := 0; i < s; i++ {
		h, payload, err := readFrame(c.rd[i])
		switch {
		case err != nil:
			err = fmt.Errorf("transport: reply from site %d: %w", i, err)
		case h.kind == kindData && int(h.round) != round:
			err = fmt.Errorf("transport: site %d replied for round %d, want %d", i, h.round, round)
		case h.kind == kindData:
			res.Payloads[i] = payload
			res.Work[i] = time.Duration(h.work)
		case h.kind == kindError:
			err = fmt.Errorf("transport: site %d round %d: %s", i, round, payload)
		default:
			err = fmt.Errorf("transport: site %d sent unexpected frame kind %d", i, h.kind)
		}
		if failed == nil {
			failed = err
		}
	}
	if err := ctx.Err(); err != nil {
		return RoundResult{}, err
	}
	if failed != nil {
		c.broken = true
		return RoundResult{}, failed
	}
	return res, nil
}

// StartJob begins a new protocol run over the same connected sites: every
// site receives a job frame carrying blob (dpc-server ships the encoded
// run configuration), after which rounds restart at 0 and the Coordinator
// can be handed to a fresh protocol run (e.g. core.RunOverCtx). Sites must be
// serving with ServeJobs; the per-run round state is reset here so a
// previous run's half-finished round cannot leak into the next job.
//
// One Coordinator still serves one protocol run at a time — StartJob gives
// connection persistence across sequential jobs (the site processes keep
// their datasets and distance caches warm), not concurrent multiplexing.
//
// The job frame is buffered, not flushed: it leaves with the next frame
// written to the site — round 0's first data frame, which every run
// writes to every site (Gather sends the empty ones), or the close frame
// — in one write, so a site wakes once for both. A job frame that does not
// fit the buffer goes out in part at once. A write error may therefore
// surface at the next send, not here.
func (c *Coordinator) StartJob(blob []byte) error {
	for i := range c.conns {
		if c.conns[i] == nil {
			return fmt.Errorf("transport: site %d is closed", i)
		}
		if err := writeFrame(c.wr[i], header{kind: kindJob}, blob); err != nil {
			c.broken = true
			return fmt.Errorf("transport: start job on site %d: %w", i, err)
		}
		c.sent[i] = false
	}
	return nil
}

// Broken reports whether a frame has failed on the wire since the
// connections were made: a write or a read that failed, or a site's error
// frame. Such a site has left its job loop, or its reply is lost, so the
// connections cannot carry another job; a failure the coordinator raised
// itself, after a complete gather, leaves them in step. A Gather ended by
// its context is not counted: its caller already knows.
func (c *Coordinator) Broken() bool { return c.broken }

// Close implements Transport: every connected site receives a close frame
// (ending its Serve loop) and the sockets are shut.
func (c *Coordinator) Close() error {
	var first error
	for i, conn := range c.conns {
		if conn == nil {
			continue
		}
		if err := writeFrame(c.wr[i], header{kind: kindClose}, nil); err == nil {
			if err := c.wr[i].Flush(); err != nil && first == nil {
				first = err
			}
		} else if first == nil {
			first = err
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
		c.conns[i] = nil
	}
	return first
}

// Abort shuts the site sockets without the protocol close frame: the
// sites observe a connection loss, not a clean end — what a persistent
// daemon's redial loop (Redial) treats as "the coordinator will be back".
// jobwire.Fleet and tree.Serve use it when the connections are out of step
// (a cancelled or failed job, a lost parent) and will be re-established
// rather than ended.
func (c *Coordinator) Abort() error {
	var first error
	for i, conn := range c.conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
		c.conns[i] = nil
	}
	return first
}

// Redial is a persistent daemon's connection loop (dpc-site, leaf or
// aggregator): dial addr as site id, retrying for timeout, serve the
// connection, close it, and dial again. A serve that returns nil — the
// coordinator's clean protocol close — ends the loop with nil; any other
// error means the coordinator dropped the connection and will re-accept
// (a cancelled or failed job), so the loop redials. A dial that runs out of timeout
// means the coordinator is gone: Redial returns that error. So does a
// welcome other than JobsHello: a coordinator of another protocol version
// would refuse every redial the same way.
func Redial(addr string, id int, timeout time.Duration, serve func(*Site) error) error {
	for {
		sc, err := Dial(addr, id, timeout)
		if err != nil {
			return err
		}
		if hello := string(sc.Hello()); hello != JobsHello {
			sc.Close()
			return fmt.Errorf("transport: coordinator at %s does not speak job frames (welcome %q, want %q)",
				addr, hello, JobsHello)
		}
		err = serve(sc)
		sc.Close()
		if err == nil {
			return nil
		}
	}
}

// Site is the site end of a TCP star network.
type Site struct {
	conn  net.Conn
	rd    *bufio.Reader
	wr    *bufio.Writer
	id    int
	hello []byte
}

// Dial connects site id to the coordinator at addr, retrying until timeout
// elapses (sites commonly start before the coordinator listens; timeout 0
// means a single attempt), and performs the handshake.
func Dial(addr string, id int, timeout time.Duration) (*Site, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return NewSite(conn, id)
		}
		if timeout == 0 || time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// NewSite performs the site-side handshake over an established connection
// (exposed so tests can run the wire protocol over net.Pipe).
func NewSite(conn net.Conn, id int) (*Site, error) {
	s := &Site{
		conn: conn,
		rd:   bufio.NewReader(conn),
		wr:   bufio.NewWriter(conn),
		id:   id,
	}
	if err := writeFrame(s.wr, header{kind: kindHello, site: uint32(id)}, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	if err := s.wr.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	h, payload, err := readFrame(s.rd)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: welcome: %w", err)
	}
	switch h.kind {
	case kindWelcome:
		s.hello = payload
		return s, nil
	case kindError:
		conn.Close()
		return nil, fmt.Errorf("transport: coordinator rejected site %d: %s", id, payload)
	default:
		conn.Close()
		return nil, fmt.Errorf("transport: expected welcome, got frame kind %d", h.kind)
	}
}

// Hello returns the blob the coordinator shipped in the welcome frame.
func (s *Site) Hello() []byte { return s.hello }

// Serve runs the site's round loop: for every data frame, h computes the
// reply, which is sent back with the measured compute duration in the
// frame header. Serve returns nil when the coordinator closes the
// protocol, or the first transport/handler error otherwise (handler errors
// are also reported to the coordinator as error frames). A job frame is
// an error: Serve is the in-process site loop of NewLocalTCP.
func (s *Site) Serve(h Handler) error { return s.serve(h, nil) }

// ServeJobs runs the site's job loop for the life of a connection
// (dpc-site under any coordinator): each job frame rebuilds the
// handler via factory (the payload is the coordinator's job blob — the
// encoded run configuration), then data frames are served by the current
// handler until the next job frame or the final close. Site-held state the
// factory closes over (the dataset, its distance cache) survives every job
// boundary; job numbers count from 0.
//
// ServeJobs returns nil on close, or the first transport/factory/handler
// error (factory and handler errors are also reported to the coordinator as
// error frames).
func (s *Site) ServeJobs(factory func(job int, blob []byte) (Handler, error)) error {
	return s.serve(nil, factory)
}

// serve is the loop behind Serve (factory nil) and ServeJobs (h nil until
// the first job frame).
func (s *Site) serve(h Handler, factory func(job int, blob []byte) (Handler, error)) error {
	job := 0
	for {
		fh, payload, err := readFrame(s.rd)
		if err != nil {
			return fmt.Errorf("transport: site %d: %w", s.id, err)
		}
		switch {
		case fh.kind == kindClose:
			return nil
		case fh.kind == kindJob && factory != nil:
			nh, err := factory(job, payload)
			if err != nil {
				// The coordinator sees the error frame in its next Gather.
				writeFrame(s.wr, header{kind: kindError, site: uint32(s.id)}, []byte(err.Error()))
				s.wr.Flush()
				return fmt.Errorf("transport: site %d job %d: %w", s.id, job, err)
			}
			h = nh
			job++
		case fh.kind == kindData && h == nil:
			err := fmt.Errorf("transport: site %d: data frame before any job frame", s.id)
			writeFrame(s.wr, header{kind: kindError, site: uint32(s.id)}, []byte(err.Error()))
			s.wr.Flush()
			return err
		case fh.kind == kindData:
			if err := s.serveData(fh, payload, h); err != nil {
				return err
			}
		default:
			return fmt.Errorf("transport: site %d: unexpected frame kind %d", s.id, fh.kind)
		}
	}
}

// serveData answers one data frame with handler h: the reply payload plus
// the measured compute duration in the frame header. Handler errors are
// reported to the coordinator as error frames and returned.
func (s *Site) serveData(fh header, payload []byte, h Handler) error {
	round := int(fh.round)
	t0 := time.Now()
	out, err := h(round, payload)
	work := time.Since(t0)
	if err != nil {
		writeFrame(s.wr, header{kind: kindError, round: fh.round, site: uint32(s.id)}, []byte(err.Error()))
		s.wr.Flush()
		return fmt.Errorf("transport: site %d round %d: %w", s.id, round, err)
	}
	reply := header{
		kind:  kindData,
		round: fh.round,
		site:  uint32(s.id),
		work:  uint64(work),
	}
	if err := writeFrame(s.wr, reply, out); err != nil {
		return fmt.Errorf("transport: site %d reply: %w", s.id, err)
	}
	if err := s.wr.Flush(); err != nil {
		return fmt.Errorf("transport: site %d reply: %w", s.id, err)
	}
	return nil
}

// Close shuts the site's socket.
func (s *Site) Close() error { return s.conn.Close() }

// NewLocalTCP runs handlers as in-process TCP sites: a localhost listener,
// one dialing goroutine per site, and the connected Coordinator as the
// transport. It exists so any protocol (core, uncertain) can exercise the
// real wire path without separate processes — the dpc-cluster
// -transport=tcp mode. Close waits for the site goroutines to drain.
func NewLocalTCP(handlers []Handler) (Transport, error) {
	s := len(handlers)
	l, err := Listen("127.0.0.1:0", s)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	addr := l.Addr().String()
	var wg sync.WaitGroup
	var dialOnce sync.Once
	var dialErr error
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			site, err := Dial(addr, i, 10*time.Second)
			if err != nil {
				// Unblock Accept: a site that cannot dial means the run
				// cannot complete, so tear the listener down and surface
				// the dial error instead of waiting forever.
				dialOnce.Do(func() {
					dialErr = err
					l.Close()
				})
				return
			}
			defer site.Close()
			site.Serve(handlers[i]) // handler errors surface as error frames
		}(i)
	}
	coord, err := l.Accept(s, nil)
	if err != nil {
		wg.Wait()
		if dialErr != nil {
			err = dialErr
		}
		return nil, err
	}
	return &localTCP{Coordinator: coord, wg: &wg}, nil
}

// localTCP wraps a Coordinator so Close also joins the site goroutines.
type localTCP struct {
	*Coordinator
	wg *sync.WaitGroup
}

// Close implements Transport.
func (t *localTCP) Close() error {
	err := t.Coordinator.Close()
	t.wg.Wait()
	return err
}
