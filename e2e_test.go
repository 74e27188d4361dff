package dpc_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dpc"
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

// TestDaemonsEndToEnd is the acceptance test of the multi-process path at
// the process level: it builds dpc-cluster and dpc-site, runs one
// `dpc-cluster -listen` coordinator plus s site processes over localhost
// TCP, and demands byte-identical centers and the same payload-byte
// accounting (frame headers excluded) as the in-process `dpc-cluster` run
// on the same shards — for a point objective and for an uncertain one.
func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	tmp := t.TempDir()
	bins := buildCommands(t, "dpc-cluster", "dpc-site")
	clusterBin, siteBin := bins["dpc-cluster"], bins["dpc-site"]

	// Seeded instance: n points around k planted centers; the uncertain
	// variant scatters a 3-point support around each.
	const s, n, k, tt = 3, 180, 3, 12
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
	parts := make([]string, s)
	for i, shard := range dataio.SplitRoundRobin(all, s) {
		parts[i] = writePoints(fmt.Sprintf("part%d.csv", i), shard)
	}
	nodesPath := filepath.Join(tmp, "nodes.csv")
	if err := os.WriteFile(nodesPath, nodes.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		// run are the clustering flags both deployments share; coord is
		// the coordinator-side data of the fleet run (none for points: the
		// data lives at the sites); site are site i's data flags.
		run   []string
		local []string
		coord []string
		site  func(i int) []string
	}{
		{
			name:  "median",
			run:   []string{"-objective", "median"},
			local: []string{"-in", allPath},
			site:  func(i int) []string { return []string{"-in", parts[i]} },
		},
		{
			// Every site is started from the one node file and serves its
			// round-robin shard; the coordinator needs the shared ground set.
			name:  "u-median",
			run:   []string{"-uncertain", "-objective", "u-median"},
			local: []string{"-in", nodesPath},
			coord: []string{"-in", nodesPath},
			site: func(i int) []string {
				return []string{"-uncertain", "-sites", strconv.Itoa(s), "-in", nodesPath}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			common := append([]string{"-sites", strconv.Itoa(s), "-k", strconv.Itoa(k), "-t", strconv.Itoa(tt), "-report"}, tc.run...)

			localOut := filepath.Join(tmp, tc.name+"-local.csv")
			args := append(append([]string{"-out", localOut}, common...), tc.local...)
			localLog, err := exec.Command(clusterBin, args...).CombinedOutput()
			if err != nil {
				t.Fatalf("in-process dpc-cluster: %v\n%s", err, localLog)
			}

			// Coordinator on an ephemeral port; its first stderr line tells
			// us where the sites should dial.
			fleetOut := filepath.Join(tmp, tc.name+"-fleet.csv")
			args = append(append([]string{"-listen", "127.0.0.1:0", "-out", fleetOut}, common...), tc.coord...)
			coord := exec.Command(clusterBin, args...)
			stderr, err := coord.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.Start(); err != nil {
				t.Fatal(err)
			}
			var lines []string // the scanner goroutine's until scanned closes
			addrCh := make(chan string, 1)
			scanned := make(chan struct{})
			go func() {
				defer close(scanned)
				sc := bufio.NewScanner(stderr)
				re := regexp.MustCompile(`listening on (\S+) `)
				for sc.Scan() {
					line := sc.Text()
					lines = append(lines, line)
					if m := re.FindStringSubmatch(line); m != nil {
						addrCh <- m[1]
					}
				}
				close(addrCh)
			}()
			addr, ok := <-addrCh
			if !ok {
				coord.Wait()
				t.Fatalf("coordinator never listened; stderr:\n%s", strings.Join(lines, "\n"))
			}

			var wg sync.WaitGroup
			siteErrs := make([]error, s)
			for i := 0; i < s; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					args := append([]string{"-connect", addr, "-site", strconv.Itoa(i)}, tc.site(i)...)
					if out, err := exec.Command(siteBin, args...).CombinedOutput(); err != nil {
						siteErrs[i] = fmt.Errorf("site %d: %v\n%s", i, err, out)
					}
				}(i)
			}
			// The coordinator's close frame is what ends the daemons: a
			// site that outlived it (or died early) fails here.
			wg.Wait()
			<-scanned
			fleetLog := strings.Join(lines, "\n")
			if err := coord.Wait(); err != nil {
				t.Fatalf("coordinator: %v\nstderr:\n%s", err, fleetLog)
			}
			for _, err := range siteErrs {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Same centers, byte for byte...
			want, err := os.ReadFile(localOut)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(fleetOut)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(want, got) {
				t.Fatalf("centers differ:\nin-process:\n%s\nfleet:\n%s", want, got)
			}

			// ...and the same payload-byte accounting and site budgets.
			for _, re := range []*regexp.Regexp{
				regexp.MustCompile(`rounds: \d+  up: \d+ B  down: \d+ B`),
				regexp.MustCompile(`site budgets t_i: .*`),
			} {
				l, f := re.FindString(string(localLog)), re.FindString(fleetLog)
				if l == "" || l != f {
					t.Fatalf("report differs: in-process %q, fleet %q\nfleet stderr:\n%s", l, f, fleetLog)
				}
			}
			if !strings.Contains(fleetLog, "backend: cluster") {
				t.Fatalf("fleet run did not use the cluster backend:\n%s", fleetLog)
			}
		})
	}
}
