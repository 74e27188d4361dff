// Command dpc-server runs the long-running clustering service: a registry
// of named datasets and an HTTP/JSON job API, so many (k, t, objective)
// queries — point and uncertain — run against the same data with warm
// distance caches and live site connections instead of one-shot CLI
// invocations.
//
// Usage:
//
//	dpc-server -listen 127.0.0.1:8080
//	dpc-server -listen :8080 -max-jobs 4 -cache-mb 512
//
//	# fan distributed jobs out to live dpc-site daemons:
//	dpc-server -listen :8080 -sites-listen 127.0.0.1:9009 -remote-sites 2 -remote-name shards
//	dpc-site -connect 127.0.0.1:9009 -site 0 -in part0.csv
//	dpc-site -connect 127.0.0.1:9009 -site 1 -in part1.csv
//
//	# several site groups; -site ids continue across them:
//	dpc-server -listen :8080 -sites-listen 127.0.0.1:9009,127.0.0.1:9010 -remote-sites 2,1
//	dpc-site -connect 127.0.0.1:9010 -site 2 -in part2.csv
//
// API sketch (see the README's Serving section for full reference):
//
//	POST /v1/datasets                  register a dataset (JSON points/nodes, or text/csv body + ?name= [&kind=uncertain])
//	POST /v1/datasets/{name}/points    append points to a table
//	GET  /v1/datasets[/{name}]         inspect datasets and cache stats
//	POST /v1/jobs                      submit a clustering job (JSON JobSpec)
//	GET  /v1/jobs/{id}                 job status + result
//	POST /v1/jobs/{id}/cancel          cancel a queued or running job
//	GET  /v1/jobs/{id}/centers.csv     centers in dpc-cluster's CSV format
//	GET  /livez, /readyz, /metrics     liveness, readiness and Prometheus metrics
//
// With -journal-dir set, every dataset and job mutation is written ahead
// to an append-only journal and replayed on start: a restarted server
// resumes its queue and re-serves finished results with zero recompute.
// /readyz answers 503 until the replay completes. The journal is the only
// thing the server writes: distance caches are recomputed, never stored —
// with -warm in the background, after every table registration and after
// a replay.
//
// SIGTERM/SIGINT drain gracefully: submissions stop, queued jobs fail with
// an explicit reason, and running jobs get -drain-timeout to finish before
// their contexts are cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpc/internal/flagbind"
	"dpc/internal/serve"
	"dpc/internal/transport"
)

// options is the server's flag surface; like cmd/dpc-cluster, the flags
// are generated from the tagged fields instead of hand-declared, so names
// cannot drift from the documented configuration vocabulary.
type options struct {
	Listen       string `json:"listen" usage:"HTTP listen address"`
	MaxJobs      int    `json:"max_jobs" usage:"max concurrently running jobs (0 = one per CPU)"`
	Queue        int    `json:"queue" usage:"max queued jobs before 503 backpressure"`
	CacheMB      int64  `json:"cache_mb" usage:"shared distance-cache pool budget in MiB"`
	Warm         bool   `json:"warm" usage:"prefill every table dataset's shard caches in the background after registration and after journal replay"`
	SitesListen  string `json:"sites_listen" usage:"when set, accept persistent dpc-site daemons on this address (comma-separated for several site groups)"`
	RemoteSites  string `json:"remote_sites" usage:"dpc-site daemons to wait for per -sites-listen address (comma-separated to match)"`
	RemoteName   string `json:"remote_name" usage:"dataset name for the connected dpc-site daemons"`
	DrainTimeout string `json:"drain_timeout" usage:"how long running jobs may finish after SIGTERM before cancellation"`

	JournalDir   string  `json:"journal_dir" usage:"when set, write-ahead journal every dataset and job mutation here and replay it on start"`
	JournalSync  bool    `json:"journal_sync" usage:"fsync the journal after every record (survives power loss, not just crashes)"`
	SegmentBytes int64   `json:"journal_segment_bytes" usage:"journal segment rotation threshold in bytes (0 = 64 MiB)"`
	CompactEvery string  `json:"compact_every" usage:"write a snapshot checkpoint and GC superseded journal segments on this cadence (0 = only on POST /v1/admin/compact)"`
	JobTTL       string  `json:"job_ttl" usage:"evict finished jobs from memory after this long (0 = keep; journaled results stay fetchable)"`
	QuotaBurst   int     `json:"quota_burst" usage:"per-client submission token bucket size (0 = no quotas)"`
	QuotaRate    float64 `json:"quota_rate" usage:"per-client token refill per second (0 = burst per second)"`
	MaxQueueWait string  `json:"max_queue_wait" usage:"fail jobs still queued after this long with queue_deadline_exceeded (0 = no deadline)"`
}

// parseSiteGroups pairs the comma-separated -sites-listen addresses with
// their -remote-sites counts: one count per address, or one count applied
// to every address.
func parseSiteGroups(listens, counts string) ([]string, []int, error) {
	addrs := strings.Split(listens, ",")
	parts := strings.Split(counts, ",")
	if len(parts) != len(addrs) && len(parts) != 1 {
		return nil, nil, fmt.Errorf("-remote-sites has %d entries for %d -sites-listen addresses", len(parts), len(addrs))
	}
	ns := make([]int, len(addrs))
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return nil, nil, fmt.Errorf("bad -sites-listen: entry %d is empty", i)
		}
		p := parts[0]
		if len(parts) > 1 {
			p = parts[i]
		}
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, nil, fmt.Errorf("bad -remote-sites entry %q (want a positive count)", p)
		}
		ns[i] = n
	}
	return addrs, ns, nil
}

func main() {
	opt := options{
		Listen: "127.0.0.1:8080", Queue: 256, CacheMB: 256,
		RemoteName: "remote", DrainTimeout: "30s",
	}
	flagbind.Bind(flag.CommandLine, &opt)
	flag.Parse()

	drain, err := time.ParseDuration(opt.DrainTimeout)
	if err != nil {
		fatal(fmt.Errorf("bad -drain-timeout: %w", err))
	}
	jobTTL := parseDurationFlag("-job-ttl", opt.JobTTL)
	maxQueueWait := parseDurationFlag("-max-queue-wait", opt.MaxQueueWait)
	compactEvery := parseDurationFlag("-compact-every", opt.CompactEvery)

	// Recovery (journal replay + cache restore) runs after the listener is
	// up: /livez answers immediately while /readyz stays 503 until the
	// replay finishes, so orchestrators see a starting process, not a dead
	// one, even behind a large journal.
	srv, err := serve.NewChecked(serve.Config{
		MaxConcurrentJobs: opt.MaxJobs,
		QueueDepth:        opt.Queue,
		MaxCacheBytes:     opt.CacheMB << 20,
		WarmOnRegister:    opt.Warm,
		JournalDir:        opt.JournalDir,
		JournalSync:       opt.JournalSync,
		SegmentBytes:      opt.SegmentBytes,
		CompactEvery:      compactEvery,
		JobTTL:            jobTTL,
		QuotaBurst:        opt.QuotaBurst,
		QuotaPerSec:       opt.QuotaRate,
		MaxQueueWait:      maxQueueWait,
		DeferRecovery:     true,
	})
	if err != nil {
		fatal(err)
	}
	go func() {
		if err := srv.Recover(); err != nil {
			// A corrupt journal starts the server journal-less, never down.
			fmt.Fprintf(os.Stderr, "dpc-server: recovery degraded (starting cold): %v\n", err)
		}
		if opt.JournalDir != "" {
			rec := srv.Recovery()
			from := "full history"
			if rec.FromSnapshot {
				from = fmt.Sprintf("snapshot (segment %d: %d datasets, %d jobs) + suffix", rec.SnapshotSegment, rec.SnapshotDatasets, rec.SnapshotJobs)
			}
			fmt.Fprintf(os.Stderr, "dpc-server: journal replayed from %s: %d records, %d datasets, %d results re-served, %d jobs resumed (sealed=%t truncated=%t, %d stale records)\n",
				from, rec.Records, rec.Datasets, rec.JobsReplayed, rec.JobsResumed, rec.Sealed, rec.Truncated, len(rec.Errors))
		}
		fmt.Fprintln(os.Stderr, "dpc-server: ready")
	}()

	if opt.SitesListen != "" {
		if opt.RemoteSites == "" {
			fatal(fmt.Errorf("-sites-listen requires -remote-sites"))
		}
		addrs, counts, err := parseSiteGroups(opt.SitesListen, opt.RemoteSites)
		if err != nil {
			fatal(err)
		}
		base := 0
		for g, addr := range addrs {
			l, err := transport.Listen(addr, counts[g])
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dpc-server: waiting for %d dpc-site daemon(s), -site ids [%d,%d), on %s\n", counts[g], base, base+counts[g], l.Addr())
			if g == 0 {
				_, err = srv.RegisterRemote(opt.RemoteName, l, counts[g])
			} else {
				err = srv.AddRemoteGroup(opt.RemoteName, l, counts[g])
			}
			if err != nil {
				fatal(err)
			}
			base += counts[g]
			fmt.Fprintf(os.Stderr, "dpc-server: %d site(s) connected on %s: dataset %q has %d site(s) in %d group(s)\n", counts[g], l.Addr(), opt.RemoteName, base, g+1)
		}
	}

	ln, err := net.Listen("tcp", opt.Listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dpc-server: serving HTTP on %s\n", ln.Addr())

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fatal(err)
	case <-sigCtx.Done():
	}

	fmt.Fprintf(os.Stderr, "dpc-server: shutting down (draining up to %s)\n", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	hs.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dpc-server: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dpc-server: drained cleanly")
}

// parseDurationFlag parses an optional duration flag ("" = zero).
func parseDurationFlag(name, v string) time.Duration {
	if v == "" || v == "0" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		fatal(fmt.Errorf("bad %s: %w", name, err))
	}
	if d < 0 {
		fatal(fmt.Errorf("bad %s: negative duration %q", name, v))
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpc-server:", err)
	os.Exit(1)
}
