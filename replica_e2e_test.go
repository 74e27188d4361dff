package dpc_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dpc"
	"dpc/client"
	"dpc/internal/journal"
	"dpc/internal/serve"
)

// serverProc is one dpc-server child process with a private journal. Its
// stderr is kept line by line so a test can assert on what a restart
// reported.
type serverProc struct {
	bin, addr, dir string
	extra          []string // flags beyond the journal's
	url            string
	cmd            *exec.Cmd
	scanned        chan struct{} // closed when stderr hits EOF

	mu  sync.Mutex
	log []string
}

var servingRE = regexp.MustCompile(`serving HTTP on (\S+)`)

// startServer starts dpc-server on addr (127.0.0.1:0 picks a port; a
// restart passes the bound address back in) journaling into dir on tiny
// segments, so modest traffic rotates them; -compact-every is far enough
// out that only an explicit admin call compacts. extra flags follow. It
// returns once the process serves HTTP and has finished replaying its
// journal.
func startServer(t *testing.T, bin, addr, dir string, extra ...string) *serverProc {
	t.Helper()
	p := &serverProc{bin: bin, dir: dir, extra: extra, scanned: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-listen", addr, "-journal-dir", dir,
		"-journal-segment-bytes", "8192", "-compact-every", "1h"}, extra...)...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	bound := make(chan string, 1)
	ready := make(chan struct{})
	go func() {
		defer close(p.scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				bound <- m[1]
			}
			// Printed after the replay summary, so once it is seen the
			// summary is in p.log.
			if line == "dpc-server: ready" {
				close(ready)
			}
		}
	}()
	timeout := time.After(30 * time.Second)
	for waiting := 2; waiting > 0; waiting-- {
		select {
		case p.addr = <-bound:
			bound = nil
		case <-ready:
			ready = nil
		case <-p.scanned:
			t.Fatalf("dpc-server exited while starting; stderr:\n%s", p.stderr())
		case <-timeout:
			t.Fatalf("dpc-server not ready after 30 s; stderr:\n%s", p.stderr())
		}
	}
	p.url = "http://" + p.addr
	return p
}

// kill SIGKILLs the process — no drain, no journal seal — and reaps it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.scanned // Wait closes the pipe: finish reading it first
	p.cmd.Wait()
}

// restart starts a new process on the same address, journal and flags.
func (p *serverProc) restart(t *testing.T) *serverProc {
	t.Helper()
	return startServer(t, p.bin, p.addr, p.dir, p.extra...)
}

// terminate SIGTERMs the process — the graceful path: drain, seal the
// journal — and returns how it exited.
func (p *serverProc) terminate() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	<-p.scanned // Wait closes the pipe: finish reading it first
	return p.cmd.Wait()
}

func (p *serverProc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// metric reads one sample from the server's /metrics page; name includes
// the label set, e.g. `dpc_journal_records_total{event="replayed"}`.
func (p *serverProc) metric(t *testing.T, name string) int {
	t.Helper()
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", p.url, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("metric %s = %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("%s/metrics has no sample %s", p.url, name)
	return 0
}

// TestServerKillReplayAndCompaction is the durable control plane's proof
// at the process level. One dpc-server with a private journal serves
// clustering jobs through client.Remote, each with centers byte-identical
// to a Local solve, and is SIGKILLed with a job running. The restart must
// replay records and re-serve a job it finished in its previous life,
// marked replayed, with the same centers; and it must requeue the job the
// kill interrupted on its own, which then reaches done under its old id,
// started after the restart, with centers equal to Local's. Phase 2 proves
// compaction on that server: its journal is driven across >= 3 segments,
// POST /v1/admin/compact must delete >= 3 of them, more records land
// behind the snapshot, the server is SIGKILLed again, and the second
// restart must restore from the snapshot, replay fewer records than the
// journal ever held, and still serve the same job.
func TestServerKillReplayAndCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildCommands(t, "dpc-server")["dpc-server"]
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	victim := startServer(t, bin, "127.0.0.1:0", t.TempDir())
	rc := client.NewRemote(victim.url, client.RemoteOptions{PollInterval: 2 * time.Millisecond})
	defer rc.Close()

	// The server's answers must equal a Local solve of the same request. A
	// few seeds, so the run is not one memoized solve.
	local := func(req client.Request, pts []client.Point) []client.Point {
		t.Helper()
		req.Points = pts
		res, err := client.NewLocal().Do(ctx, req)
		if err != nil {
			t.Fatalf("local reference: %v", err)
		}
		return res.Centers
	}
	pts := dpc.Mixture(dpc.MixtureSpec{N: 1200, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 42}).Pts
	if err := rc.RegisterDataset(ctx, "kill-e2e", pts); err != nil {
		t.Fatal(err)
	}
	var kept *client.Response // the finished job the restarts must re-serve
	for seed := int64(11); seed < 14; seed++ {
		req := client.Request{Objective: client.Median, K: 3, T: 12, Sites: 4, Seed: seed}
		want := local(req, pts)
		req.Dataset = "kill-e2e"
		res, err := rc.Do(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Centers, want) {
			t.Fatalf("job %s: centers differ from the Local solve", res.JobID)
		}
		if kept == nil {
			kept = res
		}
	}

	// The job the kill interrupts solves a ten times larger instance, so it
	// runs for far longer than the poll below takes to see it running and
	// kill the process.
	big := dpc.Mixture(dpc.MixtureSpec{N: 12000, K: 3, Dim: 2, OutlierFrac: 0.05, Seed: 43}).Pts
	if err := rc.RegisterDataset(ctx, "kill-e2e-big", big); err != nil {
		t.Fatal(err)
	}
	long := client.Request{Objective: client.Median, K: 4, T: 120, Sites: 2, Seed: 1}
	wantLong := local(long, big)
	running, err := rc.Submit(ctx, serve.JobSpec{Dataset: "kill-e2e-big", Objective: long.Objective,
		K: long.K, T: long.T, Sites: long.Sites, Seed: long.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for {
		job, err := rc.Job(ctx, running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == serve.StatusRunning {
			break
		}
		if job.Status != serve.StatusQueued {
			t.Fatalf("job %s reached %q before the kill", running.ID, job.Status)
		}
		time.Sleep(time.Millisecond)
	}
	victim.kill()
	killed := time.Now()

	// reserved checks that p still serves the job the victim finished before
	// the first kill: restored from the journal, not solved again.
	reserved := func(p *serverProc) {
		t.Helper()
		var job serve.Job
		resp, err := http.Get(p.url + "/v1/jobs/" + kept.JobID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatalf("GET /v1/jobs/%s: %v", kept.JobID, err)
		}
		if job.Status != serve.StatusDone || !job.Replayed || job.Result == nil {
			t.Fatalf("job %s after restart: status %q replayed %t, want a replayed done job", kept.JobID, job.Status, job.Replayed)
		}
		got := make([]client.Point, len(job.Result.Centers))
		for i, c := range job.Result.Centers {
			got[i] = c
		}
		if !reflect.DeepEqual(got, kept.Centers) {
			t.Fatalf("job %s after restart: centers %v, were %v", kept.JobID, got, kept.Centers)
		}
	}
	const replayedRecords = `dpc_journal_records_total{event="replayed"}`

	victim = victim.restart(t)
	if n := victim.metric(t, replayedRecords); n == 0 {
		t.Fatal("restarted replica replayed no journal records")
	}
	if !strings.Contains(victim.stderr(), "journal replayed from full history") {
		t.Fatalf("restart log reports no journal replay:\n%s", victim.stderr())
	}
	reserved(victim)

	// The server requeued the interrupted job itself: same id, a new run.
	done, err := rc.Wait(ctx, running.ID)
	if err != nil {
		t.Fatalf("interrupted job %s after restart: %v", running.ID, err)
	}
	if done.Result == nil || done.Started == nil || done.Started.Before(killed) {
		t.Fatalf("job %s started %v, not after the kill at %v, result %v: it was not rerun", running.ID, done.Started, killed, done.Result)
	}
	got := make([]client.Point, len(done.Result.Centers))
	for i, c := range done.Result.Centers {
		got[i] = c
	}
	if !reflect.DeepEqual(got, wantLong) {
		t.Fatalf("interrupted job %s: centers %v, want the Local solve's %v", running.ID, got, wantLong)
	}

	// Phase 2. Appends of 200 points are ~8 KiB records, so each rotates
	// the 8 KiB segments whatever phase 1 left behind.
	rng := rand.New(rand.NewSource(7))
	chunk := make([]client.Point, 200)
	for i := range chunk {
		chunk[i] = client.Point{10 * rng.Float64(), 10 * rng.Float64()}
	}
	if err := rc.RegisterDataset(ctx, "cpt", chunk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rc.AppendPoints(ctx, "cpt", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if n := victim.metric(t, "dpc_journal_segments"); n < 3 {
		t.Fatalf("%d journal segments before compaction, want >= 3", n)
	}
	resp, err := http.Post(victim.url+"/v1/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var compacted serve.CompactStats
	err = json.NewDecoder(resp.Body).Decode(&compacted)
	resp.Body.Close()
	if err != nil || compacted.SegmentsRemoved < 3 {
		t.Fatalf("compaction removed %d segments (decode error %v), want >= 3", compacted.SegmentsRemoved, err)
	}
	if _, err := os.Stat(journal.SegmentPath(victim.dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("superseded segment 1 still on disk (stat error %v)", err)
	}
	// A record the snapshot has not seen, then the arithmetic for the
	// restart: uncompacted, the journal would hold replayed + appended.
	if _, err := rc.AppendPoints(ctx, "cpt", chunk); err != nil {
		t.Fatal(err)
	}
	held := victim.metric(t, replayedRecords) + victim.metric(t, `dpc_journal_records_total{event="appended"}`)

	victim.kill()
	victim = victim.restart(t)
	if !strings.Contains(victim.stderr(), "journal replayed from snapshot (segment") {
		t.Fatalf("second restart did not report a snapshot restore:\n%s", victim.stderr())
	}
	if n := victim.metric(t, replayedRecords); n == 0 || n >= held {
		t.Fatalf("snapshot restart replayed %d records, want > 0 and fewer than the %d the journal held", n, held)
	}
	reserved(victim)
}
