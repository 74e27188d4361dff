package uncertain_test

import (
	"reflect"
	"testing"

	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// TestUncertainTCPMatchesLoopback: the uncertain protocols run over real
// sockets bit-for-bit like the in-process simulation.
func TestUncertainTCPMatchesLoopback(t *testing.T) {
	in, sites := plantedUncertain(t, 160, 3, 3, 4, 0.05, 9)
	for _, tc := range []struct {
		name string
		obj  uncertain.Objective
		vr   uncertain.Variant
	}{
		{"median-2round", uncertain.Median, uncertain.TwoRound},
		{"median-naive", uncertain.Median, uncertain.OneRoundShipDists},
		{"centerpp-2round", uncertain.CenterPP, uncertain.TwoRound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := uncertain.Config{K: 3, T: 8, Variant: tc.vr}
			loop, err := uncertain.Run(in.Ground, sites, cfg, tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Transport = transport.KindTCP
			tcp, err := uncertain.Run(in.Ground, sites, cfg, tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loop.Centers, tcp.Centers) {
				t.Fatalf("centers differ:\nloopback: %v\ntcp:      %v", loop.Centers, tcp.Centers)
			}
			if loop.Report.UpBytes != tcp.Report.UpBytes || loop.Report.DownBytes != tcp.Report.DownBytes {
				t.Fatalf("bytes differ: %d/%d vs %d/%d",
					loop.Report.UpBytes, loop.Report.DownBytes, tcp.Report.UpBytes, tcp.Report.DownBytes)
			}
			if !reflect.DeepEqual(loop.SiteBudgets, tcp.SiteBudgets) {
				t.Fatalf("budgets differ: %v vs %v", loop.SiteBudgets, tcp.SiteBudgets)
			}
		})
	}
}

// TestCenterGTCPMatchesLoopback: Algorithm 4's parametric search (tau-hat
// resolved from the pivot broadcast on the site's own grid) survives the
// wire.
func TestCenterGTCPMatchesLoopback(t *testing.T) {
	in, sites := plantedUncertain(t, 120, 2, 3, 3, 0.05, 13)
	cfg := uncertain.Config{K: 2, T: 6}
	loop, err := uncertain.Run(in.Ground, sites, cfg, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = transport.KindTCP
	tcp, err := uncertain.Run(in.Ground, sites, cfg, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loop.Centers, tcp.Centers) {
		t.Fatalf("centers differ:\nloopback: %v\ntcp:      %v", loop.Centers, tcp.Centers)
	}
	if loop.Tau != tcp.Tau {
		t.Fatalf("tau differs: %g vs %g", loop.Tau, tcp.Tau)
	}
	if loop.Report.UpBytes != tcp.Report.UpBytes || loop.Report.DownBytes != tcp.Report.DownBytes {
		t.Fatalf("bytes differ: %d/%d vs %d/%d",
			loop.Report.UpBytes, loop.Report.DownBytes, tcp.Report.UpBytes, tcp.Report.DownBytes)
	}
	if !reflect.DeepEqual(loop.SiteBudgets, tcp.SiteBudgets) {
		t.Fatalf("budgets differ: %v vs %v", loop.SiteBudgets, tcp.SiteBudgets)
	}
}
