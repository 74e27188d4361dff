package dpc_test

import (
	"context"
	"io"
	"net/http"
	"os"
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
// draining to exit status 0, and the -cache-dir cycle — warm distance
// triangles spilled on that SIGTERM, restored by the next process, so its
// first job starts from the previous life's filled cells.
func TestServerProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildCommands(t, "dpc-server")["dpc-server"]
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tmp := t.TempDir()
	cacheDir := filepath.Join(tmp, "cache")
	pts := dpc.Mixture(dpc.MixtureSpec{N: 400, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 9}).Pts
	req := client.Request{Objective: client.Median, K: 3, T: 15, Seed: 4}

	// life starts a server on a fresh journal (so nothing but the cache
	// directory carries over), registers pts under name, runs the job and
	// returns the dataset's cache counters after it.
	life := func(name string) (*serverProc, *client.Remote, int64, int64) {
		t.Helper()
		srv := startServer(t, bin, "127.0.0.1:0", filepath.Join(tmp, "journal-"+name), "-cache-dir", cacheDir)
		rc := client.NewRemote(srv.url, client.RemoteOptions{PollInterval: 2 * time.Millisecond})
		t.Cleanup(func() { rc.Close() })
		if err := rc.RegisterDataset(ctx, name, pts); err != nil {
			t.Fatal(err)
		}
		jobReq := req
		jobReq.Dataset = name
		if _, err := rc.Do(ctx, jobReq); err != nil {
			t.Fatal(err)
		}
		info, err := rc.Dataset(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		return srv, rc, info.CacheHits, info.CacheMisses
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

	srv, rc, coldHits, coldMisses := life("cold")
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
	again := req
	again.Dataset = "cold"
	if _, err := rc.Do(ctx, again); err != nil {
		t.Fatal(err)
	}
	info, err := rc.Dataset(ctx, "cold")
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheMisses != coldMisses || info.CacheHits <= coldHits {
		t.Fatalf("repeated job: misses %d -> %d, hits %d -> %d; want misses frozen and hits growing",
			coldMisses, info.CacheMisses, coldHits, info.CacheHits)
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
	if _, err := os.Stat(filepath.Join(cacheDir, "warm-triangles.dpcspill")); err != nil {
		t.Fatalf("no spill file after SIGTERM: %v", err)
	}

	// Restore is content-addressed: the same points under another name, on
	// another journal, still start warm.
	srv, _, warmHits, warmMisses := life("warm")
	if warmHits == 0 || warmMisses >= coldMisses {
		t.Fatalf("first job after restart: %d hits, %d misses (cold run: %d misses); want restored cells to serve it",
			warmHits, warmMisses, coldMisses)
	}
	if n := srv.metric(t, "dpc_cache_restored_cells_total"); n == 0 {
		t.Fatal("/metrics reports zero restored cells")
	}
	if err := srv.terminate(); err != nil {
		t.Fatalf("second SIGTERM: %v; stderr:\n%s", err, srv.stderr())
	}
}
