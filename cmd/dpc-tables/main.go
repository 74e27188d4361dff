// Command dpc-tables regenerates the paper's evaluation artifacts: every
// row-group of Table 1 and Table 2 plus the figure-style claims, as
// measured on this implementation (experiments E1..E12; -list names them).
//
// Usage:
//
//	dpc-tables                 # run everything at full size
//	dpc-tables -exp E1,E4      # selected experiments
//	dpc-tables -quick          # smaller instances (seconds, not minutes)
//	dpc-tables -seed 7         # different workload seed
//	dpc-tables -workers 4      # bound solver goroutines (0 = NumCPU)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dpc/internal/bench"
	"dpc/internal/engine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if _, printed := err.(parsedError); !printed {
			fmt.Fprintln(os.Stderr, "dpc-tables:", err)
		}
		os.Exit(2)
	}
}

// parsedError wraps an error the FlagSet already reported to stderr, so
// main does not print it a second time.
type parsedError struct{ error }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpc-tables", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiment IDs (E1..E12) or 'all'")
	quick := fs.Bool("quick", false, "run reduced-size instances")
	seed := fs.Int64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "solver goroutines (0 = one per CPU; tables are identical for every value)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed
		}
		return parsedError{err}
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Brief)
		}
		return nil
	}

	var selected []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	opts := bench.Options{Seed: *seed, Quick: *quick,
		Engine: engine.Options{Workers: *workers}}
	for _, e := range selected {
		t0 := time.Now()
		table := e.Run(opts)
		fmt.Fprintln(stdout, table.String())
		fmt.Fprintf(stdout, "   (%s finished in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
