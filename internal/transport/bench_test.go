package transport

import (
	"context"
	"net"
	"sync"
	"testing"
)

// BenchmarkStartJob times what a persistent fleet's coordinator pays to
// open a job: StartJob plus one empty round over 32 in-process sites on
// loopback TCP, the fanin-tree workload's leaf count. It reports the
// coordinator's socket writes per op: one a site when the job frame leaves
// with round 0's data frame.
func BenchmarkStartJob(b *testing.B) {
	const sites = 32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Error(err)
				return
			}
			site, err := NewSite(conn, i)
			if err != nil {
				b.Error(err)
				return
			}
			defer site.Close()
			site.ServeJobs(func(int, []byte) (Handler, error) {
				return func(int, []byte) ([]byte, error) { return nil, nil }, nil
			})
		}(i)
	}
	conns := make([]net.Conn, sites)
	ends := make([]*countingConn, sites)
	for i := range conns {
		conn, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		ends[i] = &countingConn{Conn: conn}
		conns[i] = ends[i]
	}
	coord, err := NewCoordinator(conns, []byte(JobsHello))
	if err != nil {
		b.Fatal(err)
	}
	defer wg.Wait()
	defer coord.Close()
	blob := make([]byte, 64)
	ctx := context.Background()
	for _, e := range ends {
		e.writes.Store(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.StartJob(blob); err != nil {
			b.Fatal(err)
		}
		if _, err := coord.Gather(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var writes int64
	for _, e := range ends {
		writes += e.writes.Load()
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
