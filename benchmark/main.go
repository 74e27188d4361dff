// Command benchmark is the repository's performance benchmark: four
// workloads, end-to-end metrics measured with tracing off, and a traced run
// that prices every layer. See README.md.
//
//	benchmark run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out F]
//	benchmark compare A.json B.json
//	benchmark manifest
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "compare":
		os.Exit(cmdCompare(os.Args[2:], os.Stdout))
	case "manifest":
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out F]
  benchmark compare A.json B.json
  benchmark manifest`)
	os.Exit(2)
}

// cmdRun runs one workload in this process, or — without -workload — each
// of the four in a child process of its own, so peak memory is per workload.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run (default: all four, one child process each)")
	seed := fs.Int64("seed", devSeed, "seed for input generation and op order")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "append the run's full record to this JSON file")
	fs.Parse(args)
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(args)
	}
	p, ok := presetByName(presets, *name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := fullOptions(*seconds)
	var rec *runRecord
	var err error
	if *trace == 1 {
		rec, err = runTraced(ctx, p, *seed, opt)
	} else {
		rec, err = runEndToEnd(ctx, p, *seed, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printRecord(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The result line: exactly these four keys, last on standard output.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload with the same flags.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, p := range presets {
		cmd := exec.Command(self, append([]string{"run", "-workload", p.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", p.Name, err)
			code = 1
		}
	}
	return code
}

// printRecord prints every metric by name with its unit, the sample counts
// beside the timings, and the failed checks.
func printRecord(r *runRecord) {
	fmt.Printf("workload %s  seed %d  trace %d  seconds %g  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	unresolved := make(map[string]bool)
	for _, n := range r.Unresolved {
		unresolved[n] = true
	}
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if c, ok := r.Samples[n]; ok {
			note = "  n=" + strconv.Itoa(c)
		}
		if unresolved[n] {
			note += "  (fewer than ten samples beyond it)"
		}
		fmt.Printf("  %-38s %16.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	for i, round := range r.Rounds {
		slowest, _ := percentile(round.JobMS, 100)
		fmt.Printf("  round %d: set-up %.3f s, %d jobs in %.2f s, p50 %.4g ms, slowest %.4g ms\n",
			i, round.SetupS, len(round.JobMS), round.WallS, median(round.JobMS), slowest)
	}
	fmt.Printf("  checks: %d attempted, %d failed; calibration %.1f -> %.1f ms", r.Attempted, r.Failed, r.CalibMS[0], r.CalibMS[1])
	if r.Noisy {
		fmt.Print("  NOISY")
	}
	fmt.Printf("; whole run %.1f s\n", r.WallS)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// outFile is the -out format: every run appended so far.
type outFile struct {
	Runs []*runRecord `json:"runs"`
}

func readOutFile(path string) (outFile, error) {
	var f outFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRecord(path string, rec *runRecord) error {
	f, err := readOutFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
