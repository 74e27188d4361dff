package comm_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dpc/internal/core"
	"dpc/internal/gen"
	"dpc/internal/jobwire"
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
// on, every protocol — all seven objectives, and the 1-round variant of
// each family — ends in context.Canceled. The last-round column is the one
// only Network.Coordinator can catch: the preempted final solve returns its
// best-so-far (for median, zero centers at infinite cost) and no round
// follows to notice, so without the check the truncated answer came back
// with a nil error.
func TestCancelAtEveryBoundary(t *testing.T) {
	const s = 6
	pin := gen.Mixture(gen.MixtureSpec{N: s * 200, K: 4, OutlierFrac: 0.03, Seed: 5})
	pts := gen.SitePoints(pin, gen.Partition(pin, s, gen.Uniform, 6))
	uin := gen.UncertainMixture(gen.UncertainSpec{N: 120, K: 3, Support: 3, OutlierFrac: 0.05, Seed: 7})
	nodes := gen.SiteNodes(uin, gen.PartitionNodes(uin, s, gen.Uniform, 8))
	opts := kmedian.Options{Seed: 1}

	point := func(obj core.Objective, vr core.Variant) jobwire.Job {
		return jobwire.Job{Kind: jobwire.KindPoint, Core: core.Config{K: 4, T: 30, Objective: obj, Variant: vr, LocalOpts: opts}}
	}
	unc := func(obj uncertain.Objective, vr uncertain.Variant) jobwire.Job {
		return jobwire.Job{Kind: jobwire.KindUncertain, Obj: obj, Unc: uncertain.Config{K: 3, T: 8, Variant: vr, LocalOpts: opts}}
	}
	for _, tc := range []struct {
		name   string
		job    jobwire.Job
		rounds int
	}{
		{"median", point(core.Median, core.TwoRound), 2},
		{"means", point(core.Means, core.TwoRound), 2},
		{"center", point(core.Center, core.TwoRound), 2},
		{"u-median", unc(uncertain.Median, uncertain.TwoRound), 2},
		{"u-means", unc(uncertain.Means, uncertain.TwoRound), 2},
		{"u-centerpp", unc(uncertain.CenterPP, uncertain.TwoRound), 2},
		{"u-centerg", unc(uncertain.CenterG, uncertain.TwoRound), 2},
		{"median-1round", point(core.Median, core.OneRound), 1},
		{"center-1round", point(core.Center, core.OneRound), 1},
		{"u-median-1round", unc(uncertain.Median, uncertain.OneRoundShipDists), 1},
		{"u-centerg-1round", unc(uncertain.CenterG, uncertain.OneRoundShipDists), 1},
	} {
		// The boundaries are the gathers: after round 0 (hulls up, or the
		// 1-round variants' only round) and after round 1, the last.
		for round := 0; round < tc.rounds; round++ {
			t.Run(fmt.Sprintf("%s/after-round-%d", tc.name, round), func(t *testing.T) {
				hs := make([]transport.Handler, s)
				for i := range hs {
					var err error
					hs[i], err = tc.job.SiteHandler(jobwire.SiteData{Site: i, Pts: pts[i], G: uin.Ground, Nodes: nodes[i]})
					if err != nil {
						t.Fatal(err)
					}
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				tr := cancelAfter{Transport: transport.NewLoopback(hs, true), round: round, cancel: cancel}
				defer tr.Close()
				if _, err := tc.job.RunOver(ctx, tr, uin.Ground); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled", err)
				}
			})
		}
	}
}
