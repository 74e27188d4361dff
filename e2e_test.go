package dpc_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpc"
	"dpc/client"
	"dpc/internal/dataio"
)

// buildCommands builds the named cmd/ programs into a fresh temporary
// directory and returns each one's path by name.
func buildCommands(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := make(map[string]string, len(names))
	for _, name := range names {
		bins[name] = filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bins[name], "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return bins
}

// daemon is one child process whose stderr is scanned line by line: the
// first line matching a pattern can be waited for (the address a process
// bound), and the whole log is there once it exits.
type daemon struct {
	cmd     *exec.Cmd
	found   chan string   // first submatch of the awaited pattern; closed at EOF
	addr    string        // what found delivered, once awaited has returned
	scanned chan struct{} // closed when stderr hits EOF
	lines   []string      // the scanner goroutine's until scanned closes
}

func startDaemon(t *testing.T, await *regexp.Regexp, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), found: make(chan string, 1), scanned: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	go func() {
		defer close(d.scanned)
		defer close(d.found)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.lines = append(d.lines, sc.Text())
			if await == nil {
				continue
			}
			if m := await.FindStringSubmatch(sc.Text()); m != nil {
				d.found <- m[1]
				await = nil // the first match is the one awaited
			}
		}
	}()
	return d
}

// awaited returns what the awaited pattern captured, or fails the test with
// the process's stderr if it exited without printing it. Call it from the
// test's own goroutine.
func (d *daemon) awaited(t *testing.T) string {
	t.Helper()
	if d.addr == "" {
		var ok bool
		if d.addr, ok = <-d.found; !ok {
			d.cmd.Wait()
			t.Fatalf("%s exited before printing its address; stderr:\n%s", d.cmd.Path, strings.Join(d.lines, "\n"))
		}
	}
	return d.addr
}

// wait reaps the process and returns its stderr and exit error.
func (d *daemon) wait() (string, error) {
	<-d.scanned // Wait closes the pipe: finish reading it first
	return strings.Join(d.lines, "\n"), d.cmd.Wait()
}

var (
	coordListening = regexp.MustCompile(`listening on (\S+) `)
	aggAccepting   = regexp.MustCompile(`accepting \d+ children \(ids \d+\.\.\d+\) on (\S+), dialing`)
)

// TestDaemonsEndToEnd is the acceptance test of the multi-process path at
// the process level: it builds dpc-cluster and dpc-site, runs one
// `dpc-cluster -listen` coordinator plus its site processes over localhost
// TCP, and demands byte-identical centers and the same payload-byte
// accounting (frame headers excluded) as the in-process `dpc-cluster` run
// on the same shards — for a point objective, for an uncertain one, and
// for a point objective deployed both as the paper's star and as a depth-3
// aggregation tree of processes (8 leaves -> 4 `dpc-site -aggregate` -> 2
// `-aggregate -inner` -> the coordinator under -topology tree,branch=2),
// whose report must attribute bytes to all three link tiers and show a
// root inbox below the star's.
func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	tmp := t.TempDir()
	bins := buildCommands(t, "dpc-cluster", "dpc-site")
	clusterBin, siteBin := bins["dpc-cluster"], bins["dpc-site"]

	// Seeded instance: n points around k planted centers; the uncertain
	// variant scatters a 3-point support around each.
	const n, k, tt = 180, 3, 12
	rng := rand.New(rand.NewSource(41))
	var all []dpc.Point
	var nodes bytes.Buffer
	for j := 0; j < n; j++ {
		c := j % k
		p := dpc.Point{float64(12*c) + rng.NormFloat64(), float64(12*c) + rng.NormFloat64()}
		all = append(all, p)
		for q := 0; q < 3; q++ {
			fmt.Fprintf(&nodes, "n%d,1,%g,%g\n", j, p[0]+0.3*rng.NormFloat64(), p[1]+0.3*rng.NormFloat64())
		}
	}
	writePoints := func(name string, pts []dpc.Point) string {
		path := filepath.Join(tmp, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dataio.WritePointsCSV(f, pts); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allPath := writePoints("all.csv", all)
	// The in-process run shards round-robin (point j to site j%s); the
	// site processes must hold exactly those shards.
	parts := func(s int) []string {
		paths := make([]string, s)
		for i, shard := range dataio.SplitRoundRobin(all, s) {
			paths[i] = writePoints(fmt.Sprintf("part%d-of-%d.csv", i, s), shard)
		}
		return paths
	}
	parts3, parts8 := parts(3), parts(8)
	nodesPath := filepath.Join(tmp, "nodes.csv")
	if err := os.WriteFile(nodesPath, nodes.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// leaves runs site processes 0..s-1, site i dialing addr(i), and returns
	// a join that reports the first one that failed. The coordinator's close
	// frame is what ends every daemon: one that outlived it (or died early)
	// fails there.
	leaves := func(s int, addr func(i int) string, data func(i int) []string) func() error {
		errs := make([]error, s)
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			args := append([]string{"-connect", addr(i), "-site", strconv.Itoa(i)}, data(i)...)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if out, err := exec.Command(siteBin, args...).CombinedOutput(); err != nil {
					errs[i] = fmt.Errorf("site %d: %v\n%s", i, err, out)
				}
			}(i)
		}
		return func() error {
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	// star is the paper's deployment: every leaf dials the coordinator.
	star := func(s int, data func(i int) []string) func(t *testing.T, coord string) func() error {
		return func(t *testing.T, coord string) func() error {
			return leaves(s, func(int) string { return coord }, data)
		}
	}
	// tree8 is 8 leaves under branch 2: tree.Tiers(8, 2) = [4, 2], the plan
	// -topology tree,branch=2 derives. Every aggregator picks its own port;
	// its -v banner says which, and that is where its children dial.
	tree8 := func(t *testing.T, coord string) func() error {
		tier := func(count int, parent func(j int) string, inner bool) []*daemon {
			aggs := make([]*daemon, count)
			for j := range aggs {
				args := []string{"-aggregate", "-v", "-connect", parent(j), "-site", strconv.Itoa(j),
					"-children-listen", "127.0.0.1:0", "-children", "2", "-child-base", strconv.Itoa(2 * j)}
				if inner {
					args = append(args, "-inner")
				}
				aggs[j] = startDaemon(t, aggAccepting, siteBin, args...)
			}
			return aggs
		}
		top := tier(2, func(int) string { return coord }, true)
		bottom := tier(4, func(j int) string { return top[j/2].awaited(t) }, false)
		join := leaves(8, func(i int) string { return bottom[i/2].awaited(t) }, func(i int) []string { return []string{"-in", parts8[i]} })
		return func() error {
			err := join()
			for _, a := range append(top, bottom...) {
				if log, aerr := a.wait(); aerr != nil && err == nil {
					err = fmt.Errorf("aggregator: %v\n%s", aerr, log)
				}
			}
			return err
		}
	}

	for _, tc := range []struct {
		name  string
		sites int
		// run are the clustering flags every deployment shares; local is the
		// in-process run's data; coord the coordinator-side data of a fleet
		// run (none for points: the data lives at the sites); fleets are the
		// process deployments, each with the flags its coordinator adds.
		run    []string
		local  []string
		coord  []string
		fleets []fleet
	}{
		{
			name: "median", sites: 3,
			run:    []string{"-objective", "median"},
			local:  []string{"-in", allPath},
			fleets: []fleet{{"star", nil, star(3, func(i int) []string { return []string{"-in", parts3[i]} })}},
		},
		{
			// Every site is started from the one node file and serves its
			// round-robin shard; the coordinator needs the shared ground set.
			name: "u-median", sites: 3,
			run:   []string{"-uncertain", "-objective", "u-median"},
			local: []string{"-in", nodesPath},
			coord: []string{"-in", nodesPath},
			fleets: []fleet{{"star", nil, star(3, func(i int) []string {
				return []string{"-uncertain", "-sites", "3", "-in", nodesPath}
			})}},
		},
		{
			// Algorithm 4 rides the same fleet: a u-centerg job is one more
			// uncertain job frame.
			name: "u-centerg", sites: 3,
			run:   []string{"-uncertain", "-objective", "u-centerg"},
			local: []string{"-in", nodesPath},
			coord: []string{"-in", nodesPath},
			fleets: []fleet{{"star", nil, star(3, func(i int) []string {
				return []string{"-uncertain", "-sites", "3", "-in", nodesPath}
			})}},
		},
		{
			name: "tree", sites: 8,
			run:   []string{"-objective", "median"},
			local: []string{"-in", allPath},
			fleets: []fleet{
				{"star", nil, star(8, func(i int) []string { return []string{"-in", parts8[i]} })},
				{"tree", []string{"-topology", "tree,branch=2"}, tree8},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common := append([]string{"-sites", strconv.Itoa(tc.sites), "-k", strconv.Itoa(k), "-t", strconv.Itoa(tt), "-report"}, tc.run...)

			localOut := filepath.Join(tmp, tc.name+"-local.csv")
			args := append(append([]string{"-out", localOut}, common...), tc.local...)
			localLog, err := exec.Command(clusterBin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("in-process dpc-cluster: %v\n%s", err, localLog)
			}
			want, err := os.ReadFile(localOut)
			if err != nil {
				t.Fatal(err)
			}

			for _, fl := range tc.fleets {
				// Coordinator on an ephemeral port; its first stderr line
				// tells us where the fleet should dial.
				fleetOut := filepath.Join(tmp, tc.name+"-"+fl.name+"-fleet.csv")
				args = append(append(append([]string{"-listen", "127.0.0.1:0", "-out", fleetOut}, common...), tc.coord...), fl.coord...)
				coord := startDaemon(t, coordListening, clusterBin, args...)
				join := fl.start(t, coord.awaited(t))
				if err := join(); err != nil {
					t.Fatal(err)
				}
				fleetLog, err := coord.wait()
				if err != nil {
					t.Fatalf("%s coordinator: %v\nstderr:\n%s", fl.name, err, fleetLog)
				}

				// Same centers, byte for byte...
				got, err := os.ReadFile(fleetOut)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !bytes.Equal(want, got) {
					t.Fatalf("centers differ:\nin-process:\n%s\n%s fleet:\n%s", want, fl.name, got)
				}
				// ...and the same payload-byte accounting and site budgets.
				for _, re := range []*regexp.Regexp{
					regexp.MustCompile(`rounds: \d+  up: \d+ B  down: \d+ B`),
					regexp.MustCompile(`site budgets t_i: .*`),
				} {
					l, f := re.FindString(string(localLog)), re.FindString(fleetLog)
					if l == "" || l != f {
						t.Fatalf("report differs: in-process %q, %s fleet %q\nfleet stderr:\n%s", l, fl.name, f, fleetLog)
					}
				}
				if !strings.Contains(fleetLog, "backend: cluster") {
					t.Fatalf("%s fleet run did not use the cluster backend:\n%s", fl.name, fleetLog)
				}
				if fl.name != "tree" {
					continue
				}
				// The tree's own claims: bytes attributed to all three link
				// tiers, and a physical root inbox of the star's bytes plus
				// framing — in each of the 2 rounds, 2 batches of at most 26
				// bytes (magic, version, counts, two varints for each of the
				// 2 levels below the root) and a length of at most 3 bytes
				// for each of the 8 sites.
				m := regexp.MustCompile(`tree \(branch 2\): root inbox (\d+) B \(star would be (\d+) B\)`).FindStringSubmatch(fleetLog)
				if m == nil || !strings.Contains(fleetLog, "level 2:") {
					t.Fatalf("tree report lacks the branch line or a third level:\n%s", fleetLog)
				}
				root, _ := strconv.Atoi(m[1]) // the pattern admits digits only
				if starInbox, _ := strconv.Atoi(m[2]); root < starInbox || root > starInbox+2*(2*26+8*3) {
					t.Fatalf("root inbox %s B outside the star's %s B plus framing", m[1], m[2])
				}
			}
		})
	}
}

// fleet is one process deployment of a job: the flags its coordinator adds
// to the shared ones, and start, which launches everything that dials in
// (given the coordinator's address) and returns a join for their exits.
type fleet struct {
	name  string
	coord []string
	start func(t *testing.T, coord string) func() error
}

// TestTreeDaemonsSurviveCancel is the tree fleet's cancel path at the
// process level: 4 dpc-site leaf processes under 2 `dpc-site -aggregate`
// processes under an in-process client.ListenClusterTree. A Do cancelled
// while the leaves solve costs one reconnect — each aggregator aborts its
// leaves, which redial it, and redials the coordinator, every process
// logging the redial — so the next Do answers with the star's centers,
// every process is still running, and after Close every process exits 0.
func TestTreeDaemonsSurviveCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	const sites, branch = 4, 2
	tmp := t.TempDir()
	siteBin := buildCommands(t, "dpc-site")["dpc-site"]
	in := dpc.Mixture(dpc.MixtureSpec{N: 8000, K: 4, OutlierFrac: 0.05, Seed: 11})
	req := dpc.Request{Objective: "median", K: 4, T: 60, Seed: 1, Points: in.Pts}

	cl, err := client.ListenClusterTree("127.0.0.1:0", sites, branch)
	if err != nil {
		t.Fatal(err)
	}
	var daemons []*daemon
	for j := 0; j < sites/branch; j++ {
		daemons = append(daemons, startDaemon(t, aggAccepting, siteBin, "-aggregate", "-v", "-connect", cl.Addr(),
			"-site", strconv.Itoa(j), "-children-listen", "127.0.0.1:0", "-children", "2", "-child-base", strconv.Itoa(branch*j)))
	}
	leafJob := regexp.MustCompile(`dpc-site \d+: job (\d+):`)
	for i, shard := range dataio.SplitRoundRobin(in.Pts, sites) {
		path := filepath.Join(tmp, fmt.Sprintf("part%d.csv", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dataio.WritePointsCSV(f, shard); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, startDaemon(t, leafJob, siteBin, "-v", "-connect", daemons[i/branch].awaited(t),
			"-site", strconv.Itoa(i), "-in", path))
	}
	cluster, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Do(ctx, req)
		done <- err
	}()
	for _, leaf := range daemons[sites/branch:] {
		leaf.awaited(t) // the leaf has its job frame and is solving round 0
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: %v, want context.Canceled", err)
	}

	bounded, stop := context.WithTimeout(context.Background(), 2*time.Minute)
	defer stop()
	got, err := cluster.Do(bounded, req)
	if err != nil {
		t.Fatalf("Do after the cancel: %v", err)
	}
	star := req
	star.Sites = sites
	want, err := dpc.NewLocalClient().Do(bounded, star)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Centers, want.Centers) {
		t.Fatalf("centers after the cancel %v, star %v", got.Centers, want.Centers)
	}
	for _, d := range daemons {
		select {
		case <-d.scanned:
			log, err := d.wait()
			t.Fatalf("%v exited before Close (%v); stderr:\n%s", d.cmd.Args, err, log)
		default:
		}
	}

	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range daemons {
		log, err := d.wait()
		if err != nil {
			t.Errorf("%v: %v; stderr:\n%s", d.cmd.Args, err, log)
		}
		if !strings.Contains(log, "redialing") {
			t.Errorf("%v never logged a redial: the cancel did not reach it; stderr:\n%s", d.cmd.Args, log)
		}
	}
}
