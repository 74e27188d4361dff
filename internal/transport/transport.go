// Package transport moves the coordinator protocol's opaque payload bytes
// between the coordinator and its s sites in synchronous rounds.
//
// A Transport is the seam between the algorithms (which speak
// comm.Payload wire bytes) and the medium those bytes cross: the loopback
// backend keeps everything in one process (today's simulation, exact byte
// accounting, one goroutine per site), while the TCP backend runs the same
// protocol over real sockets with a length-prefixed framed wire format so
// sites can live in separate processes (cmd/dpc-site) from the coordinator
// (cmd/dpc-cluster -listen, cmd/dpc-server, any client.Cluster).
//
// The round contract, shared by every backend:
//
//  1. The coordinator may send at most one downstream message per site per
//     round, either Broadcast (same bytes to every site) or Send (one
//     site). An empty (nil) message is legal and costs zero payload bytes.
//  2. Gather closes the round: every site that received no explicit
//     downstream message is handed an empty one, every site computes, and
//     Gather returns the per-site reply bytes plus the per-site compute
//     durations (wall clock on the site).
//  3. Rounds are numbered 0,1,2,... and strictly ordered; a Transport is
//     not safe for concurrent use by multiple protocol runs.
//
// Byte accounting lives one layer up in comm.Network; transports carry
// payloads verbatim and never count their own framing overhead.
package transport

import (
	"context"
	"fmt"
	"time"
)

// Handler is the site half of a protocol: it consumes the downstream
// message of a round (nil for an empty message) and produces the site's
// reply (nil for an empty reply).
type Handler func(round int, in []byte) (out []byte, err error)

// RoundResult is what Gather returns: the per-site upstream payloads and
// the per-site compute durations for the round.
type RoundResult struct {
	// Payloads[i] is site i's reply (nil for an empty message).
	Payloads [][]byte
	// Work[i] is site i's compute wall-clock for the round.
	Work []time.Duration
}

// Transport moves payload bytes between the coordinator and s sites.
// Implementations: Loopback (in-process), Coordinator (TCP).
type Transport interface {
	// Sites returns the number of sites.
	Sites() int
	// Broadcast sends b to every site as the downstream message of round.
	Broadcast(round int, b []byte) error
	// Send sends b to a single site as its downstream message of round.
	Send(round, site int, b []byte) error
	// Gather closes the round and collects every site's reply. A cancelled
	// or expired ctx aborts the wait promptly with ctx.Err() — the protocol
	// run is then dead (site replies may still be in flight) and the
	// transport must not be reused for further rounds.
	Gather(ctx context.Context, round int) (RoundResult, error)
	// Close ends the protocol and releases resources. For TCP it tells
	// every site to exit its serve loop.
	Close() error
}

// Kind names a transport backend selection.
type Kind string

// Backends.
const (
	// KindLoopback runs sites in-process (the default).
	KindLoopback Kind = "loopback"
	// KindTCP runs the protocol over real localhost/remote TCP sockets.
	KindTCP Kind = "tcp"
)

// ParseKind validates a backend name; the empty string means loopback.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindLoopback:
		return KindLoopback, nil
	case KindTCP:
		return KindTCP, nil
	}
	return "", fmt.Errorf("transport: unknown backend %q (want loopback or tcp)", s)
}

// JobsHello is the welcome blob of every coordinator in the repository: it
// tells a dialing site that run configurations arrive per job frame
// (ServeJobs). Sites and aggregators refuse any other welcome, so a
// misconfigured pairing fails immediately instead of hanging. The number
// names the job frame and payload encodings (internal/jobwire,
// internal/comm) too: a fleet of mixed versions fails at this handshake, not
// at a decoder or at a site that drops a config key it does not know.
const JobsHello = "dpc-jobs/4"

// NewLocal materializes a backend selection for in-process site handlers:
// loopback directly, or TCP with one localhost site server per handler.
// parallel applies to loopback only (TCP sites are always concurrent).
func NewLocal(kind Kind, handlers []Handler, parallel bool) (Transport, error) {
	k, err := ParseKind(string(kind))
	if err != nil {
		return nil, err
	}
	if k == KindTCP {
		return NewLocalTCP(handlers)
	}
	return NewLoopback(handlers, parallel), nil
}
