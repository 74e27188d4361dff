package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLoopbackGatherCancels: a cancelled context unblocks Gather while a
// site handler is still computing, returns ctx.Err(), and poisons the
// transport for further rounds.
func TestLoopbackGatherCancels(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocked := func(round int, in []byte) ([]byte, error) {
		<-release // simulates a long local solve
		return nil, nil
	}
	tr := NewLoopback([]Handler{blocked, blocked}, true)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := tr.Gather(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Gather returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Gather took %v to notice the cancellation", elapsed)
	}
	if _, err := tr.Gather(context.Background(), 1); err == nil {
		t.Fatalf("Gather on a cancelled transport succeeded")
	}
}

// TestLoopbackGatherSequentialCancel covers the sequential path (parallel =
// false, one site after another): cancellation is noticed between sites.
func TestLoopbackGatherSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	first := func(round int, in []byte) ([]byte, error) {
		cancel() // cancel while site 0 runs; site 1 must never start
		return nil, nil
	}
	second := func(round int, in []byte) ([]byte, error) {
		t.Error("site 1 ran after cancellation")
		return nil, nil
	}
	tr := NewLoopback([]Handler{first, second}, false)
	if _, err := tr.Gather(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Gather returned %v, want context.Canceled", err)
	}
}

// TestTCPGatherCancels: the TCP coordinator's Gather unblocks its socket
// reads when the context dies mid-round.
func TestTCPGatherCancels(t *testing.T) {
	release := make(chan struct{})
	blocked := func(round int, in []byte) ([]byte, error) {
		<-release
		return nil, nil
	}
	tr, err := NewLocalTCP([]Handler{blocked})
	if err != nil {
		t.Fatal(err)
	}
	// Close joins the site goroutines, so the blocked handler must be
	// released first — defers run LIFO.
	defer tr.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	if _, err := tr.Gather(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Gather returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Gather took %v to notice the cancellation", elapsed)
	}
}
