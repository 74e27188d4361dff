// Command dpc-sweep emits CSV series for figure-style plots of the
// experiments `dpc-tables -list` names: communication and quality as one
// parameter sweeps while the rest stay fixed. Pipe the output into any
// plotting tool.
//
// Usage:
//
//	dpc-sweep -sweep t          # bytes vs outlier budget, 2-round vs 1-round vs no-ship
//	dpc-sweep -sweep s          # bytes vs number of sites
//	dpc-sweep -sweep n          # bytes vs total input size
//	dpc-sweep -sweep eps        # cost vs coordinator slack
//	dpc-sweep -sweep m          # uncertain: bytes vs support size
//	dpc-sweep -sweep subq       # centralized runtime vs n per level
//	dpc-sweep -quick            # reduced instance sizes (seconds, not minutes)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/uncertain"
)

// sweeper runs one sweep series, writing CSV to w.
type sweeper struct {
	out   io.Writer
	seed  int64
	quick bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if _, printed := err.(parsedError); !printed {
			fmt.Fprintln(os.Stderr, "dpc-sweep:", err)
		}
		os.Exit(exitCode(err))
	}
}

// usageError marks bad invocations (exit 2, like flag parsing).
type usageError struct{ error }

// parsedError wraps an error the FlagSet already reported to stderr, so
// main does not print it a second time.
type parsedError struct{ usageError }

func exitCode(err error) int {
	switch err.(type) {
	case usageError, parsedError:
		return 2
	}
	return 1
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpc-sweep", flag.ContinueOnError)
	sweep := fs.String("sweep", "t", "one of: t, s, n, eps, m, subq")
	seed := fs.Int64("seed", 1, "workload seed")
	quick := fs.Bool("quick", false, "reduced instance sizes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed
		}
		// The FlagSet already printed the error and usage to stderr.
		return parsedError{usageError{err}}
	}
	sw := &sweeper{out: stdout, seed: *seed, quick: *quick}
	switch *sweep {
	case "t":
		return sw.sweepT()
	case "s":
		return sw.sweepS()
	case "n":
		return sw.sweepN()
	case "eps":
		return sw.sweepEps()
	case "m":
		return sw.sweepM()
	case "subq":
		return sw.sweepSubq()
	}
	return usageError{fmt.Errorf("unknown sweep %q (want t, s, n, eps, m or subq)", *sweep)}
}

// shrink halves-and-more a full-size parameter in quick mode.
func (sw *sweeper) shrink(full, quick int) int {
	if sw.quick {
		return quick
	}
	return full
}

func (sw *sweeper) sites(n, k, s int) (gen.Instance, [][]metric.Point) {
	in := gen.Mixture(gen.MixtureSpec{N: n, K: k, Dim: 2, OutlierFrac: 0.1, Seed: sw.seed})
	parts := gen.Partition(in, s, gen.Uniform, sw.seed+1)
	return in, gen.SitePoints(in, parts)
}

func (sw *sweeper) sweepT() error {
	fmt.Fprintln(sw.out, "t,two_round_bytes,one_round_bytes,noship_bytes")
	_, sp := sw.sites(sw.shrink(3000, 400), 4, 8)
	tts := []int{10, 20, 40, 80, 160, 320}
	if sw.quick {
		tts = []int{10, 20, 40}
	}
	for _, tt := range tts {
		two, err := core.Run(sp, core.Config{K: 4, T: tt, Objective: core.Median})
		if err != nil {
			return err
		}
		one, err := core.Run(sp, core.Config{K: 4, T: tt, Objective: core.Median, Variant: core.OneRound})
		if err != nil {
			return err
		}
		ns, err := core.Run(sp, core.Config{K: 4, T: tt, Objective: core.Median, Variant: core.TwoRoundNoOutliers})
		if err != nil {
			return err
		}
		fmt.Fprintf(sw.out, "%d,%d,%d,%d\n", tt, two.Report.UpBytes, one.Report.UpBytes, ns.Report.UpBytes)
	}
	return nil
}

func (sw *sweeper) sweepS() error {
	fmt.Fprintln(sw.out, "s,two_round_bytes,one_round_bytes")
	ss := []int{2, 4, 8, 16, 32}
	if sw.quick {
		ss = []int{2, 4}
	}
	for _, s := range ss {
		_, sp := sw.sites(sw.shrink(3200, 400), 4, s)
		two, err := core.Run(sp, core.Config{K: 4, T: sw.shrink(100, 20), Objective: core.Median})
		if err != nil {
			return err
		}
		one, err := core.Run(sp, core.Config{K: 4, T: sw.shrink(100, 20), Objective: core.Median, Variant: core.OneRound})
		if err != nil {
			return err
		}
		fmt.Fprintf(sw.out, "%d,%d,%d\n", s, two.Report.UpBytes, one.Report.UpBytes)
	}
	return nil
}

func (sw *sweeper) sweepN() error {
	fmt.Fprintln(sw.out, "n,two_round_bytes,site_wall_ms")
	ns := []int{500, 1000, 2000, 4000, 8000}
	if sw.quick {
		ns = []int{200, 400}
	}
	for _, n := range ns {
		_, sp := sw.sites(n, 4, 8)
		two, err := core.Run(sp, core.Config{K: 4, T: sw.shrink(60, 15), Objective: core.Median})
		if err != nil {
			return err
		}
		fmt.Fprintf(sw.out, "%d,%d,%d\n", n, two.Report.UpBytes, two.Report.SiteWall.Milliseconds())
	}
	return nil
}

func (sw *sweeper) sweepEps() error {
	fmt.Fprintln(sw.out, "eps,median_cost,means_cost")
	in, sp := sw.sites(sw.shrink(1500, 300), 4, 6)
	tt := sw.shrink(75, 15)
	epss := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	if sw.quick {
		epss = []float64{0.5, 1, 2}
	}
	for _, eps := range epss {
		med, err := core.Run(sp, core.Config{K: 4, T: tt, Objective: core.Median, Eps: eps})
		if err != nil {
			return err
		}
		mea, err := core.Run(sp, core.Config{K: 4, T: tt, Objective: core.Means, Eps: eps})
		if err != nil {
			return err
		}
		cm := core.Evaluate(in.Pts, med.Centers, med.OutlierBudget, core.Median)
		cq := core.Evaluate(in.Pts, mea.Centers, mea.OutlierBudget, core.Means)
		fmt.Fprintf(sw.out, "%g,%g,%g\n", eps, cm, cq)
	}
	return nil
}

func (sw *sweeper) sweepM() error {
	fmt.Fprintln(sw.out, "m,alg3_bytes,naive_bytes")
	ms := []int{2, 4, 8, 16, 32}
	if sw.quick {
		ms = []int{2, 4}
	}
	for _, m := range ms {
		in := gen.UncertainMixture(gen.UncertainSpec{
			N: sw.shrink(400, 100), K: 3, Support: m, OutlierFrac: 0.08, Seed: sw.seed,
		})
		parts := gen.PartitionNodes(in, 4, gen.Uniform, sw.seed+1)
		sn := gen.SiteNodes(in, parts)
		tt := sw.shrink(40, 10)
		smart, err := uncertain.Run(in.Ground, sn, uncertain.Config{K: 3, T: tt}, uncertain.Median)
		if err != nil {
			return err
		}
		naive, err := uncertain.Run(in.Ground, sn, uncertain.Config{K: 3, T: tt, Variant: uncertain.OneRoundShipDists}, uncertain.Median)
		if err != nil {
			return err
		}
		fmt.Fprintf(sw.out, "%d,%d,%d\n", m, smart.Report.UpBytes, naive.Report.UpBytes)
	}
	return nil
}

func (sw *sweeper) sweepSubq() error {
	fmt.Fprintln(sw.out, "n,direct_s,level1_s,level2_s")
	ns := []int{1000, 2000, 4000, 8000}
	if sw.quick {
		ns = []int{300, 600}
	}
	for _, n := range ns {
		in := gen.Mixture(gen.MixtureSpec{N: n, K: 3, OutlierFrac: 0.03, Seed: sw.seed})
		opts := kmedian.Options{MaxIters: 10, Seed: sw.seed}
		var secs [3]float64
		for lvl := 0; lvl <= 2; lvl++ {
			sol, err := central.PartialMedian(context.Background(), in.Pts, central.Config{K: 3, T: n / 50, Levels: lvl, Opts: opts})
			if err != nil {
				return err
			}
			secs[lvl] = sol.Elapsed.Seconds()
		}
		fmt.Fprintf(sw.out, "%d,%.3f,%.3f,%.3f\n", n, secs[0], secs[1], secs[2])
	}
	return nil
}
