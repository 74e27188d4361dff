package comm_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/kmedian"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// cancelAfter cancels the run's context the moment the gather of one round
// has returned — a cancellation landing exactly on a protocol boundary,
// with no later transport call guaranteed to notice it.
type cancelAfter struct {
	transport.Transport
	round  int
	cancel context.CancelFunc
}

func (c cancelAfter) Gather(ctx context.Context, round int) (transport.RoundResult, error) {
	res, err := c.Transport.Gather(ctx, round)
	if round == c.round {
		c.cancel()
	}
	return res, err
}

// TestCancelAtEveryBoundary: whichever round boundary a cancellation lands
// on, every protocol driver ends in context.Canceled. The last-round column
// is the one only Network.Coordinator can catch: the preempted final solve
// returns its best-so-far (for median, zero centers at infinite cost) and no
// round follows to notice, so without the check the truncated answer came
// back with a nil error.
func TestCancelAtEveryBoundary(t *testing.T) {
	const s = 6
	pin := gen.Mixture(gen.MixtureSpec{N: s * 200, K: 4, OutlierFrac: 0.03, Seed: 5})
	pts := gen.SitePoints(pin, gen.Partition(pin, s, gen.Uniform, 6))
	uin := gen.UncertainMixture(gen.UncertainSpec{N: 120, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 7})
	nodes := gen.SiteNodes(uin, gen.PartitionNodes(uin, s, gen.Uniform, 8))
	opts := kmedian.Options{Seed: 1}

	// Each driver builds its site handlers and returns the coordinator run.
	type run func(ctx context.Context, tr transport.Transport) error
	type build func() ([]transport.Handler, run, error)
	handlers := func(mk func(i int) (transport.Handler, error)) ([]transport.Handler, error) {
		hs := make([]transport.Handler, s)
		for i := range hs {
			h, err := mk(i)
			if err != nil {
				return nil, err
			}
			hs[i] = h
		}
		return hs, nil
	}
	point := func(obj core.Objective) build {
		return func() ([]transport.Handler, run, error) {
			cfg := core.Config{K: 4, T: 30, Objective: obj, LocalOpts: opts}
			hs, err := handlers(func(i int) (transport.Handler, error) { return core.NewSiteHandler(cfg, i, pts[i]) })
			return hs, func(ctx context.Context, tr transport.Transport) error {
				_, err := core.RunOverCtx(ctx, tr, cfg)
				return err
			}, err
		}
	}
	unc := func(obj uncertain.Objective) build {
		return func() ([]transport.Handler, run, error) {
			cfg := uncertain.Config{K: 3, T: 8, LocalOpts: opts}
			hs, err := handlers(func(i int) (transport.Handler, error) {
				return uncertain.NewSiteHandler(uin.Ground, nodes[i], cfg, obj, i)
			})
			return hs, func(ctx context.Context, tr transport.Transport) error {
				_, err := uncertain.RunOverCtx(ctx, uin.Ground, tr, cfg, obj)
				return err
			}, err
		}
	}
	centerG := func() ([]transport.Handler, run, error) {
		cfg := uncertain.CenterGConfig{K: 3, T: 8, LocalOpts: opts}
		hs, err := handlers(func(i int) (transport.Handler, error) {
			return uncertain.NewCenterGSiteHandler(uin.Ground, nodes[i], cfg, i)
		})
		return hs, func(ctx context.Context, tr transport.Transport) error {
			_, err := uncertain.RunCenterGOverCtx(ctx, uin.Ground, tr, cfg)
			return err
		}, err
	}

	for _, tc := range []struct {
		name  string
		build build
	}{
		{"median", point(core.Median)},
		{"means", point(core.Means)},
		{"center", point(core.Center)},
		{"u-median", unc(uncertain.Median)},
		{"u-centerpp", unc(uncertain.CenterPP)},
		{"u-centerg", centerG},
	} {
		// Every driver here is two rounds: 0 (hulls up) and 1, the last.
		for _, round := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/after-round-%d", tc.name, round), func(t *testing.T) {
				hs, run, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				tr := cancelAfter{Transport: transport.NewLoopback(hs, true), round: round, cancel: cancel}
				defer tr.Close()
				if err := run(ctx, tr); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled", err)
				}
			})
		}
	}
}
