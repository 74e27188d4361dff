// Package comm implements the paper's coordinator model: s sites and one
// coordinator on a star network, computing in synchronous rounds
// (coordinator -> sites, local computation, sites -> coordinator).
//
// Every message is a Payload with a concrete wire format (below). Network
// is a thin accounting layer over a transport.Transport: the transport
// moves the encoded bytes (in-process loopback, or framed TCP between real
// processes) while Network counts the exact payload sizes, so the
// communication columns of Tables 1 and 2 are measured on real bytes, not
// estimated — and a TCP run reports exactly the bytes a loopback run does,
// because fixed frame headers are transport overhead and never counted.
// Per-round site wall clock is the maximum site duration (sites run in
// parallel in the modeled system) and total work is the sum; both are
// measured on the site side of the transport.
//
// # Wire format
//
// This package is the only place that knows it (payload.go); a relay such
// as internal/tree carries payloads as opaque bytes. The paper charges a
// site B bits per point and, for a precluster center, a count of log n
// bits, and the encoding follows it: a float is 8 little-endian bytes, and
// every count, dimension, hull budget, ground-set index and length is a
// uvarint (unsigned LEB128, binary.PutUvarint).
//
//	PointsMsg          n, dim, n × (dim f64)
//	WeightedPointsMsg  n, dim, form, n × (dim f64, weight)
//	CollapsedMsg       n, dim, form, n × (dim f64, f64 ell, weight)
//	HullMsg            hull = n, n × (Q, f64 C)
//	HullsMsg           n, n × hull
//	Float64sMsg        n, n × f64
//	NodesMsg           n, n × (m, m × (index, f64 prob))
//	Multi              n, n × (len, len bytes)
//	PivotMsg           u32 I0 (signed), u32 Q0, f64 L0, u32 Rank, byte, f64 Tau
//
// form is one byte the encoder picks from the data: 1 when every weight of
// the message is a non-negative integer below 2^53 — then each weight is a
// uvarint, and float64(uvarint) gives the weight back bit for bit — and 0
// otherwise (a fraction, -0, NaN, an infinity), when each weight is its
// f64. Precluster weights are point counts, so sites produce form 1.
// PivotMsg, the one downlink message, keeps fixed 32-bit slots: 29 bytes
// whatever it carries. Decoders bound every count by the bytes that follow
// it before allocating, compare every length in uint64, and reject
// trailing bytes.
package comm

import (
	"context"
	"encoding"
	"fmt"
	"sync"
	"time"

	"dpc/internal/transport"
)

// Payload is a message body with a concrete wire format.
type Payload interface {
	encoding.BinaryMarshaler
}

// Encode marshals a payload to its wire bytes; a nil payload encodes as
// nil, modeling the paper's "could be an empty message".
func Encode(p Payload) ([]byte, error) {
	if p == nil {
		return nil, nil
	}
	return p.MarshalBinary()
}

// mustEncode panics on marshal failure (payload bugs, not runtime input).
func mustEncode(p Payload) []byte {
	b, err := Encode(p)
	if err != nil {
		panic(fmt.Sprintf("comm: payload failed to marshal: %v", err))
	}
	return b
}

// Network accounts one protocol run over a transport. Not safe for
// concurrent use by multiple algorithm runs.
type Network struct {
	tr  transport.Transport
	ctx context.Context // run lifetime; cancellation aborts rounds promptly

	mu       sync.Mutex
	up       []int64 // payload bytes sites -> coordinator, per round
	down     []int64 // payload bytes coordinator -> sites, per round
	rounds   int
	siteWall time.Duration // sum over rounds of max site duration
	siteWork time.Duration // sum of all site durations
	coord    time.Duration
}

// NewOverCtx wraps a connected transport in an accounting layer whose
// rounds abort with ctx.Err() as soon as ctx is cancelled or its deadline
// passes — the hook that makes every protocol driver in the repository
// cancellable without threading a context through each round call.
func NewOverCtx(ctx context.Context, tr transport.Transport) *Network {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Network{tr: tr, ctx: ctx}
}

// Sites returns the number of sites.
func (nw *Network) Sites() int { return nw.tr.Sites() }

// ensureRound grows the per-round byte slices up to index r.
func (nw *Network) ensureRound(r int) {
	for len(nw.up) <= r {
		nw.up = append(nw.up, 0)
		nw.down = append(nw.down, 0)
	}
}

// Broadcast sends p to every site as the downstream message of the
// upcoming round, accounting len(encoding) bytes per site.
func (nw *Network) Broadcast(p Payload) error {
	if err := nw.ctx.Err(); err != nil {
		return err
	}
	b := mustEncode(p)
	nw.mu.Lock()
	round := nw.rounds
	nw.ensureRound(round)
	nw.down[round] += int64(len(b)) * int64(nw.tr.Sites())
	nw.mu.Unlock()
	return nw.tr.Broadcast(round, b)
}

// Send sends p to one site as its downstream message of the upcoming round.
func (nw *Network) Send(site int, p Payload) error {
	if site < 0 || site >= nw.tr.Sites() {
		panic(fmt.Sprintf("comm: no such site %d", site))
	}
	if err := nw.ctx.Err(); err != nil {
		return err
	}
	b := mustEncode(p)
	nw.mu.Lock()
	round := nw.rounds
	nw.ensureRound(round)
	nw.down[round] += int64(len(b))
	nw.mu.Unlock()
	return nw.tr.Send(round, site, b)
}

// SiteRound closes the round: every site receives its downstream message
// (empty when none was sent), computes, and replies. The per-site reply
// bytes are returned for the coordinator to decode; upstream bytes and
// site durations are accounted.
func (nw *Network) SiteRound() ([][]byte, error) {
	nw.mu.Lock()
	round := nw.rounds
	nw.mu.Unlock()
	res, err := nw.tr.Gather(nw.ctx, round)
	if err != nil {
		return nil, err
	}
	var upBytes int64
	var maxDur, sumDur time.Duration
	for i, b := range res.Payloads {
		upBytes += int64(len(b))
		d := res.Work[i]
		sumDur += d
		if d > maxDur {
			maxDur = d
		}
	}
	nw.mu.Lock()
	nw.ensureRound(round)
	nw.up[round] += upBytes
	nw.rounds++
	nw.siteWall += maxDur
	nw.siteWork += sumDur
	nw.mu.Unlock()
	return res.Payloads, nil
}

// Coordinator times a coordinator-side computation and returns its error.
// A nil error from fn becomes ctx.Err() when the run was cancelled
// meanwhile: the solvers preempt on cancellation by returning their best
// answer so far, and a final solve has no later round to notice, so this is
// the one place a truncated answer is kept from passing as a result.
func (nw *Network) Coordinator(fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	nw.mu.Lock()
	nw.coord += d
	nw.mu.Unlock()
	if err != nil {
		return err
	}
	return nw.ctx.Err()
}

// TreeLevel is the physical traffic crossing one level of an aggregation
// tree: Down is coordinator-side bytes fanning out at that level, Up is the
// bytes arriving from the level below (batches and their framing above the
// leaf links, less the site compute times that ride along as transport
// metadata). Level 0 is the root's own links to its direct children — the
// coordinator's real inbox/outbox.
type TreeLevel struct {
	Down int64 `json:"down"`
	Up   int64 `json:"up"`
}

// TreeStats attributes a run's traffic to the levels of an aggregation
// tree (internal/tree). The flat Report numbers stay in star terms — the
// exact payload bytes the sites produced, identical across topologies —
// while Levels carries what physically crossed each tier of links, so the
// framing a tree deployment adds is measurable without changing what the
// parity tests compare.
type TreeStats struct {
	// Branch is the configured branching factor.
	Branch int `json:"branch"`
	// Leaves is the number of real (data-holding) sites.
	Leaves int `json:"leaves"`
	// Levels[0] is the root's links; Levels[len-1] the leaf links.
	Levels []TreeLevel `json:"levels"`
}

// RootUpBytes is the coordinator's physical inbox: bytes that arrived on
// the root's own links. Zero-valued stats return 0.
func (t TreeStats) RootUpBytes() int64 {
	if len(t.Levels) == 0 {
		return 0
	}
	return t.Levels[0].Up
}

// TreeStatser is implemented by transports that route through an
// aggregation tree and can attribute traffic per level (tree.Root). Report
// picks the stats up through this interface so Network itself stays
// topology-blind.
type TreeStatser interface {
	TreeStats() (TreeStats, bool)
}

// Report is the measured footprint of a distributed run — the unit of
// comparison for the communication and local-time columns of Tables 1-2.
type Report struct {
	Sites     int
	Rounds    int
	UpBytes   int64
	DownBytes int64
	RoundUp   []int64
	RoundDown []int64
	SiteWall  time.Duration // sum over rounds of the slowest site
	SiteWork  time.Duration // total site CPU work
	CoordWork time.Duration

	// Tree carries per-level physical byte attribution when the transport
	// is an aggregation tree; nil for star runs.
	Tree *TreeStats
}

// TotalBytes is all communication in both directions.
func (r Report) TotalBytes() int64 { return r.UpBytes + r.DownBytes }

// Report snapshots the accounting so far.
func (nw *Network) Report() Report {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	r := Report{
		Sites:     nw.tr.Sites(),
		Rounds:    nw.rounds,
		RoundUp:   append([]int64(nil), nw.up...),
		RoundDown: append([]int64(nil), nw.down...),
		SiteWall:  nw.siteWall,
		SiteWork:  nw.siteWork,
		CoordWork: nw.coord,
	}
	for _, b := range nw.up {
		r.UpBytes += b
	}
	for _, b := range nw.down {
		r.DownBytes += b
	}
	if ts, ok := nw.tr.(TreeStatser); ok {
		if t, ok := ts.TreeStats(); ok {
			r.Tree = &t
		}
	}
	return r
}
