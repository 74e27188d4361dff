package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dpc/internal/engine"
	"dpc/internal/geom"
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

// TestConfigWireRoundTrip: DecodeConfig inverts EncodeConfig for the
// protocol-relevant fields, including negatives and defaults.
func TestConfigWireRoundTrip(t *testing.T) {
	in := Config{
		K: 7, T: 99, Objective: Means, Variant: TwoRoundNoOutliers,
		Eps: 0.5, RelaxCenters: true, LloydPolish: true,
		Rho: 1.25, Delta: 0.125, HullBase: 3,
		Engine: kmedian.EngineJV,
		LocalOpts: kmedian.Options{
			Seed: -12345, MaxIters: 17, SampleFacilities: -1, Restarts: 2,
		},
		Options: engine.Options{Workers: 3, NoCache: true},
	}
	out, err := DecodeConfig(EncodeConfig(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.withDefaults(), out) {
		t.Fatalf("round trip:\nin:  %+v\nout: %+v", in.withDefaults(), out)
	}
	// Defaults are applied before shipping, so a zero config decodes to
	// the paper's defaults, not zeros.
	zero, err := DecodeConfig(EncodeConfig(Config{K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Eps != 1 || zero.Rho != 2 || zero.HullBase != 2 {
		t.Fatalf("defaults not applied: %+v", zero)
	}
	// Reference mode must survive the handshake (a measurement run's
	// baseline semantics depend on the sites honoring it).
	ref, err := DecodeConfig(EncodeConfig(Config{K: 1, Options: engine.Options{Reference: true}}))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Reference || !ref.NoCache || ref.Workers != 1 || !ref.LocalOpts.Reference {
		t.Fatalf("reference knobs lost in handshake: %+v", ref)
	}
	if _, err := DecodeConfig([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
}

// TestConfigWireVersion: a record is version 4, 96 bytes, and anything that
// is not exactly one such record — including the 105-byte version 3 that
// still carried the retired pivot-index fields — is rejected.
func TestConfigWireVersion(t *testing.T) {
	b := EncodeConfig(Config{K: 5, T: 10, Options: engine.Options{Workers: 2}})
	if b[0] != 4 || len(b) != 96 {
		t.Fatalf("encoded version %d, %d bytes; want v4, 96 bytes", b[0], len(b))
	}
	v3 := append(append([]byte(nil), b...), make([]byte, 9)...)
	v3[0] = 3
	if _, err := DecodeConfig(v3); err == nil {
		t.Fatal("105-byte version-3 record accepted")
	}
	if _, err := DecodeConfig(b[:len(b)-1]); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := DecodeConfig(append(b, 0)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// FuzzDecodeConfig feeds arbitrary bytes to the config decoder, as a site
// receives them in a job frame: it must never panic, accept nothing but a
// current-version record, and whatever it accepts must re-encode to a fixed
// point (compared as bytes: a NaN field is not equal to itself). A record
// that also validates must give a budget grid that returns — the site's
// first use of HullBase and T.
func FuzzDecodeConfig(f *testing.F) {
	// The point rows of internal/jobwire's TestProtocolGolden.
	for _, obj := range []Objective{Median, Means, Center} {
		for _, vr := range []Variant{TwoRound, OneRound, TwoRoundNoOutliers} {
			f.Add(EncodeConfig(Config{K: 3, T: 40, Objective: obj, Variant: vr, LocalOpts: kmedian.Options{Seed: 1}}))
		}
	}
	// A version-3 record: the version-4 fields plus the retired Index byte
	// and Pivots word.
	v3 := append(EncodeConfig(Config{K: 3, T: 40}), make([]byte, 9)...)
	v3[0] = 3
	f.Add(v3)
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := DecodeConfig(raw)
		if err != nil {
			return
		}
		if raw[0] != configWireVersion || len(raw) != configWireSize {
			t.Fatalf("accepted a %d-byte version-%d record", len(raw), raw[0])
		}
		once := EncodeConfig(cfg)
		again, err := DecodeConfig(once)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if twice := EncodeConfig(again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", once, twice)
		}
		if validate(cfg.withDefaults()) != nil {
			return
		}
		geom.Grid(min(cfg.T, 4096), cfg.HullBase)
	})
}
