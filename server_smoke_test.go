package dpc_test

import (
	"context"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dpc"
	"dpc/client"
)

// TestServerProcessSmoke checks what only a real dpc-server process can
// show (the embedded-server tests in dpc/client and internal/serve cover
// what the service computes): readiness and the raw error envelope over
// plain net/http with no typed client in between, a repeated job served
// from the warm shared cache with the counters /metrics exposes, SIGTERM
// draining to exit status 0, and a -warm restart on the same journal — the
// replayed dataset's shard caches prefilled in the background, so the new
// life's first job computes no distance at the sites.
func TestServerProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildCommands(t, "dpc-server")["dpc-server"]
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	journalDir := filepath.Join(t.TempDir(), "journal")
	pts := dpc.Mixture(dpc.MixtureSpec{N: 400, K: 3, Dim: 8, OutlierFrac: 0.05, Seed: 9}).Pts
	req := client.Request{Objective: client.Median, K: 3, T: 15, Seed: 4}

	req.Dataset = "d"
	// counters reads the dataset's cache traffic so far.
	counters := func(rc *client.Remote) (hits, misses int64) {
		t.Helper()
		info, err := rc.Dataset(ctx, req.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		return info.CacheHits, info.CacheMisses
	}
	// get is the wire as a stranger sees it: status and body, no client.
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	srv := startServer(t, bin, "127.0.0.1:0", journalDir)
	rc := client.NewRemote(srv.url, client.RemoteOptions{PollInterval: 2 * time.Millisecond})
	defer rc.Close()
	if err := rc.RegisterDataset(ctx, req.Dataset, pts); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	coldHits, coldMisses := counters(rc)
	if code, _ := get(srv.url + "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d after the server reported ready", code)
	}
	// The contract the typed client switches on: status 404 and a stable
	// machine-readable code in the JSON envelope.
	code, body := get(srv.url + "/v1/datasets/definitely-missing")
	if code != http.StatusNotFound || !regexp.MustCompile(`"code": *"dataset_not_found"`).MatchString(body) {
		t.Fatalf("unknown dataset: status %d, body %s; want 404 with code dataset_not_found", code, body)
	}
	if coldMisses == 0 {
		t.Fatal("cold job computed no distances")
	}
	// The same job again: every distance it needs is already in the shared
	// shard caches.
	if _, err := rc.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if hits, misses := counters(rc); misses != coldMisses || hits <= coldHits {
		t.Fatalf("repeated job: misses %d -> %d, hits %d -> %d; want misses frozen and hits growing",
			coldMisses, misses, coldHits, hits)
	}
	if n := srv.metric(t, `dpc_jobs_total{status="done"}`); n != 2 {
		t.Fatalf("/metrics counts %d done jobs, want 2", n)
	}
	if n := srv.metric(t, "dpc_cache_pool_entries"); n == 0 {
		t.Fatal("/metrics reports an empty cache pool after two jobs")
	}

	if err := srv.terminate(); err != nil {
		t.Fatalf("SIGTERM: %v, want exit status 0; stderr:\n%s", err, srv.stderr())
	}
	if !strings.Contains(srv.stderr(), "drained cleanly") {
		t.Fatalf("SIGTERM exit did not report a clean drain:\n%s", srv.stderr())
	}

	// The next life, on the same journal with -warm: replay brings the
	// dataset back and schedules its warmup; once that is done the first
	// job runs on filled cells.
	srv = startServer(t, bin, "127.0.0.1:0", journalDir, "-warm")
	rc2 := client.NewRemote(srv.url, client.RemoteOptions{PollInterval: 2 * time.Millisecond})
	defer rc2.Close()
	for deadline := time.Now().Add(30 * time.Second); srv.metric(t, `dpc_warmup_tasks_total{state="done"}`) < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("no warmup finished after a -warm restart; stderr:\n%s", srv.stderr())
		}
		time.Sleep(5 * time.Millisecond)
	}
	warmHits, warmMisses := counters(rc2)
	if _, err := rc2.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	if hits, misses := counters(rc2); hits <= warmHits || misses != warmMisses {
		t.Fatalf("first job after the -warm restart: hits %d -> %d, misses %d -> %d; want the replay warmup to have filled every cell it reads",
			warmHits, hits, warmMisses, misses)
	}
	if err := srv.terminate(); err != nil {
		t.Fatalf("second SIGTERM: %v; stderr:\n%s", err, srv.stderr())
	}
}
