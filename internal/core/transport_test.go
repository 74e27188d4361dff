package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
)

// testSites builds a deterministic clustered instance split across s sites.
func testSites(s, n, dim int, seed int64) [][]metric.Point {
	rng := rand.New(rand.NewSource(seed))
	sites := make([][]metric.Point, s)
	for j := 0; j < n; j++ {
		c := j % 3
		p := make(metric.Point, dim)
		for d := range p {
			p[d] = float64(c*10) + rng.NormFloat64()
		}
		sites[j%s] = append(sites[j%s], p)
	}
	return sites
}

// TestTCPMatchesLoopback is the acceptance gate of the transport
// subsystem: the same seeded instance clustered over real TCP sockets must
// return the same centers as the in-process loopback run, with payload
// byte accounting (frame headers excluded) matching exactly.
func TestTCPMatchesLoopback(t *testing.T) {
	sites := testSites(4, 120, 3, 7)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"median-2round", Config{K: 3, T: 10, Objective: Median, Variant: TwoRound}},
		{"median-1round", Config{K: 3, T: 10, Objective: Median, Variant: OneRound}},
		{"median-noship", Config{K: 3, T: 10, Objective: Median, Variant: TwoRoundNoOutliers}},
		{"means-2round", Config{K: 3, T: 10, Objective: Means, Variant: TwoRound}},
		{"center-2round", Config{K: 3, T: 10, Objective: Center, Variant: TwoRound}},
		{"center-1round", Config{K: 3, T: 10, Objective: Center, Variant: OneRound}},
		{"center-noship", Config{K: 3, T: 10, Objective: Center, Variant: TwoRoundNoOutliers}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.LocalOpts = kmedian.Options{Seed: 11}
			loop, err := Run(sites, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Transport = transport.KindTCP
			tcp, err := Run(sites, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loop.Centers, tcp.Centers) {
				t.Fatalf("centers differ:\nloopback: %v\ntcp:      %v", loop.Centers, tcp.Centers)
			}
			if loop.Report.UpBytes != tcp.Report.UpBytes ||
				loop.Report.DownBytes != tcp.Report.DownBytes ||
				loop.Report.Rounds != tcp.Report.Rounds {
				t.Fatalf("accounting differs: loopback %d up/%d down/%d rounds, tcp %d up/%d down/%d rounds",
					loop.Report.UpBytes, loop.Report.DownBytes, loop.Report.Rounds,
					tcp.Report.UpBytes, tcp.Report.DownBytes, tcp.Report.Rounds)
			}
			if !reflect.DeepEqual(loop.Report.RoundUp, tcp.Report.RoundUp) ||
				!reflect.DeepEqual(loop.Report.RoundDown, tcp.Report.RoundDown) {
				t.Fatalf("per-round accounting differs: %v/%v vs %v/%v",
					loop.Report.RoundUp, loop.Report.RoundDown, tcp.Report.RoundUp, tcp.Report.RoundDown)
			}
			if !reflect.DeepEqual(loop.SiteBudgets, tcp.SiteBudgets) {
				t.Fatalf("budgets differ: %v vs %v", loop.SiteBudgets, tcp.SiteBudgets)
			}
			if loop.OutlierBudget != tcp.OutlierBudget {
				t.Fatalf("outlier budget differs: %v vs %v", loop.OutlierBudget, tcp.OutlierBudget)
			}
		})
	}
}
