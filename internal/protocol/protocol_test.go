package protocol

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/transport"
	"dpc/internal/tree"
)

// fakeSite holds n items, costs (n - q)² / 100^param to ignore q of them
// (convex and decreasing, so the allocation has something to rank; cheaper
// at every later parameter, so Step 6 has something to pick), logs every
// call the skeleton makes and ships the budget it was handed as its payload.
type fakeSite struct {
	n     int
	calls []string
}

func (f *fakeSite) Len() int { return f.n }

func (f *fakeSite) Curve(param int, grid []int) []float64 {
	f.calls = append(f.calls, fmt.Sprintf("curve%d%v", param, grid))
	costs := make([]float64, len(grid))
	for i, q := range grid {
		costs[i] = float64((f.n-q)*(f.n-q)) / math.Pow(100, float64(param))
	}
	return costs
}

func (f *fakeSite) Precluster(b Budget) comm.Payload {
	f.calls = append(f.calls, fmt.Sprintf("precluster%+v", b))
	return comm.Float64sMsg{Vals: []float64{float64(b.T)}}
}

// fakeReducer collects the budgets the sites shipped.
type fakeReducer struct{ got []int }

func (r *fakeReducer) Add(b []byte) error {
	var msg comm.Float64sMsg
	if err := msg.UnmarshalBinary(b); err != nil {
		return err
	}
	r.got = append(r.got, int(msg.Vals[0]))
	return nil
}

func (r *fakeReducer) Solve(res *Result) { res.CoordinatorClients = len(r.got) }

// runFake runs the whole skeleton in-process over fake sites of the given
// sizes.
func runFake(p Params, sizes ...int) ([]*fakeSite, *fakeReducer, Result, error) {
	sites := make([]*fakeSite, len(sizes))
	shards := make([][]struct{}, len(sizes))
	for i, n := range sizes {
		sites[i], shards[i] = &fakeSite{n: n}, make([]struct{}, n)
	}
	red := &fakeReducer{}
	res, err := RunLocal(context.Background(), p, transport.KindLoopback, tree.Spec{}, shards,
		func(i int) (transport.Handler, error) { return Handler(p, i, sites[i]), nil },
		func(tr transport.Transport) (Result, error) { return Run(context.Background(), tr, p, red) })
	return sites, red, res, err
}

// fourTaus is a parameter grid under which the fake sites' summed allocated
// costs (at least 75 / 100^param for sizes 20, 4, 9 and t = 6, at most
// 33² / 100^param) first drop to 12 tau at the second threshold.
var fourTaus = []float64{1, 2, 3, 4}

// TestTwoRoundSequencing: round 0 samples each site's curve, once per
// parameter, on the grid of its own capped budget; round 1 hands each site
// the budget the coordinator replayed for it under the parameter Step 6
// picked; and the only downstream bytes are the pivot's.
func TestTwoRoundSequencing(t *testing.T) {
	for _, tc := range []struct {
		taus  []float64
		param int
	}{{nil, 0}, {fourTaus, 1}} {
		p := Params{Name: "fake", T: 6, Rho: 2, HullBase: 2, TauGrid: tc.taus}
		sites, red, res, err := runFake(p, 20, 4, 9)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Rounds != 2 || res.Report.RoundDown[0] != 0 || res.Report.RoundDown[1] == 0 {
			t.Fatalf("rounds %d, down bytes %v: want 2 rounds with only the pivot going down", res.Report.Rounds, res.Report.RoundDown)
		}
		if !reflect.DeepEqual(red.got, res.SiteBudgets) || res.CoordinatorClients != 3 {
			t.Fatalf("sites preclustered with %v, the coordinator replayed %v", red.got, res.SiteBudgets)
		}
		wantTau := 0.0
		if tc.taus != nil {
			wantTau = tc.taus[tc.param]
		}
		if res.Tau != wantTau || !reflect.DeepEqual(res.TauGrid, tc.taus) {
			t.Fatalf("tau %g of grid %v, want parameter %d of %v", res.Tau, res.TauGrid, tc.param, tc.taus)
		}
		sum := 0
		for i, st := range sites {
			ti := res.SiteBudgets[i]
			sum += ti
			// Site 1 holds 4 items against t = 6: its grid stops at 3.
			grid := geom.Grid(min(p.T, st.n-1), p.HullBase)
			var want []string
			for param := range max(len(tc.taus), 1) {
				want = append(want, fmt.Sprintf("curve%d%v", param, grid))
			}
			want = append(want, fmt.Sprintf("precluster%+v", Budget{T: ti, Lo: ti, Hi: ti, Param: tc.param}))
			if !reflect.DeepEqual(st.calls, want) {
				t.Errorf("site %d saw %v, want %v", i, st.calls, want)
			}
			if ti > grid[len(grid)-1] {
				t.Errorf("site %d got budget %d beyond its cap %d", i, ti, grid[len(grid)-1])
			}
		}
		if sum == 0 || sum > int(p.Rho*float64(p.T))+p.T {
			t.Fatalf("budgets %v sum to %d, want in (0, rho*t + t]", res.SiteBudgets, sum)
		}
	}
}

// TestHullWire: a one-parameter site ships exactly a HullMsg, as before
// there were parameters; a site of several ships a HullsMsg, one hull each.
func TestHullWire(t *testing.T) {
	one, err := Handler(Params{Name: "fake", T: 6, HullBase: 2}, 0, &fakeSite{n: 20})(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hull comm.HullMsg
	if err := hull.UnmarshalBinary(one); err != nil {
		t.Fatalf("one-parameter hull is not a HullMsg: %v", err)
	}
	if again, _ := hull.MarshalBinary(); !bytes.Equal(again, one) {
		t.Fatalf("one-parameter hull %x re-encodes to %x", one, again)
	}
	many, err := Handler(Params{Name: "fake", T: 6, HullBase: 2, TauGrid: fourTaus}, 0, &fakeSite{n: 20})(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hulls comm.HullsMsg
	if err := hulls.UnmarshalBinary(many); err != nil || len(hulls.Hulls) != len(fourTaus) {
		t.Fatalf("four-parameter hulls: %d hulls, %v", len(hulls.Hulls), err)
	}
}

// TestPickTau: Step 6 takes the first threshold whose cost is at most 12
// tau, the last when none is, and never asks for a cost past its answer.
func TestPickTau(t *testing.T) {
	grid := []float64{1, 2, 4, 8}
	for _, tc := range []struct {
		costs []float64
		want  int
	}{
		{[]float64{12, 99, 99, 99}, 0},
		{[]float64{13, 25, 48, 99}, 2},
		{[]float64{13, 25, 49, 97}, 3},
	} {
		last := -1
		got := PickTau(grid, func(i int) float64 {
			if i != last+1 {
				t.Fatalf("cost(%d) asked after cost(%d)", i, last)
			}
			last = i
			return tc.costs[i]
		})
		if got != tc.want || last != got {
			t.Errorf("costs %v: picked %d (last asked %d), want %d", tc.costs, got, last, tc.want)
		}
	}
}

// TestOneRoundSequencing: the baseline is one round with t_i = t (capped),
// no curve, no budgets reported and nothing sent down — and its handler
// never reads a pivot, whatever bytes arrive with round 0.
func TestOneRoundSequencing(t *testing.T) {
	p := Params{Name: "fake", T: 6, Rho: 2, HullBase: 2, OneRound: true}
	sites, red, res, err := runFake(p, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Rounds != 1 || res.Report.DownBytes != 0 || res.SiteBudgets != nil {
		t.Fatalf("rounds %d, down %d B, budgets %v: want one silent round", res.Report.Rounds, res.Report.DownBytes, res.SiteBudgets)
	}
	if want := []int{6, 3}; !reflect.DeepEqual(red.got, want) {
		t.Fatalf("sites preclustered with %v, want %v", red.got, want)
	}
	for i, st := range sites {
		if len(st.calls) != 1 || !strings.HasPrefix(st.calls[0], "precluster") {
			t.Errorf("site %d saw %v, want one precluster call", i, st.calls)
		}
	}
	h := Handler(p, 0, &fakeSite{n: 5})
	if _, err := h(0, []byte("not a pivot")); err != nil {
		t.Fatalf("1-round round 0 read its downstream bytes: %v", err)
	}
	if _, err := h(1, nil); err == nil || !strings.Contains(err.Error(), "fake") {
		t.Fatalf("1-round handler served round 1: %v", err)
	}
}

// negativeSite's curve is not a cost curve: no hull can be built from it.
type negativeSite struct{ fakeSite }

func (negativeSite) Curve(_ int, grid []int) []float64 {
	costs := make([]float64, len(grid))
	for i := range costs {
		costs[i] = -1
	}
	return costs
}

// TestSiteErrorsNameTheProtocol: a round the protocol does not have, a
// pivot that does not parse and a curve no hull can be built from are
// errors tagged with Params.Name.
func TestSiteErrorsNameTheProtocol(t *testing.T) {
	p := Params{Name: "fake", T: 6, Rho: 2, HullBase: 2}
	h := Handler(p, 0, &fakeSite{n: 20})
	if _, err := h(0, nil); err != nil {
		t.Fatal(err)
	}
	multi := Handler(Params{Name: "fake", T: 6, Rho: 2, HullBase: 2, TauGrid: fourTaus}, 0, &fakeSite{n: 20})
	if _, err := multi(0, nil); err != nil {
		t.Fatal(err)
	}
	offGrid, _ := comm.PivotMsg{Rank: 1, Tau: 2.5}.MarshalBinary()
	for name, call := range map[string]func() ([]byte, error){
		"unknown round":      func() ([]byte, error) { return h(2, nil) },
		"pivot before hulls": func() ([]byte, error) { return Handler(p, 0, &fakeSite{n: 20})(1, offGrid) },
		"malformed pivot":    func() ([]byte, error) { return h(1, []byte{1, 2, 3}) },
		"malformed hull":     func() ([]byte, error) { return Handler(p, 0, &negativeSite{fakeSite{n: 20}})(0, nil) },
		"tau off the grid":   func() ([]byte, error) { return multi(1, offGrid) },
	} {
		if _, err := call(); err == nil || !strings.HasPrefix(err.Error(), "fake: site ") {
			t.Errorf("%s: error %v, want one tagged \"fake: site\"", name, err)
		}
	}
}

// TestCoordinatorErrorsNameTheSite: a hull or a preclustering the
// coordinator cannot decode, or a site shipping the wrong number of hulls,
// is an error naming the protocol and the site it came from.
func TestCoordinatorErrorsNameTheSite(t *testing.T) {
	two := Params{Name: "fake", T: 6, Rho: 2, HullBase: 2}
	one := Params{Name: "fake", T: 6, OneRound: true}
	four := Params{Name: "fake", T: 6, Rho: 2, HullBase: 2, TauGrid: fourTaus}
	three := four
	three.TauGrid = fourTaus[:3]
	// garbage is site 1 of a run under p, replying nonsense in one round.
	garbage := func(p Params, round int) transport.Handler {
		honest := Handler(p, 1, &fakeSite{n: 20})
		return func(r int, in []byte) ([]byte, error) {
			if r == round {
				return []byte{0xff}, nil
			}
			return honest(r, in)
		}
	}
	// hull is site 1 of a run under p, shipping the given hulls in round 0
	// (one HullMsg, or a HullsMsg under a TauGrid) and an honest budget
	// payload in round 1.
	hull := func(p Params, hs ...[]geom.Vertex) transport.Handler {
		var msg comm.Payload = comm.HullsMsg{Hulls: hs}
		if p.TauGrid == nil {
			msg = comm.HullMsg{V: hs[0]}
		}
		return func(r int, in []byte) ([]byte, error) {
			if r == 0 {
				return comm.Encode(msg)
			}
			return comm.Encode(comm.Float64sMsg{Vals: []float64{0}})
		}
	}
	honest := []geom.Vertex{{Q: 0, C: 36}, {Q: 6, C: 0}}
	// The probe: a hull past t whose pivot rounds site 1 up to 2^30
	// outliers, which under noship became the reported outlier budget.
	probe := []geom.Vertex{{Q: 0, C: 1e15}, {Q: 1 << 30, C: 0}}
	for _, tc := range []struct {
		p    Params
		bad  transport.Handler
		want string
	}{
		{two, garbage(two, 0), "fake: coordinator hull 1:"},
		{two, garbage(two, 1), "fake: precluster from site 1:"},
		{one, garbage(one, 0), "fake: precluster from site 1:"},
		{four, Handler(three, 1, &fakeSite{n: 20}), "fake: coordinator hull 1: 3 hulls, want 4"},
		{four, Handler(two, 1, &fakeSite{n: 20}), "fake: coordinator hull 1:"},
		{two, hull(two, probe), "fake: coordinator hull 1: budget 1073741824 above t = 6"},
		{two, hull(two, []geom.Vertex{{Q: 0, C: 5}, {Q: 7, C: 0}}), "fake: coordinator hull 1: budget 7 above t = 6"},
		{two, hull(two, []geom.Vertex{{Q: 0, C: math.NaN()}, {Q: 6, C: 0}}), "fake: coordinator hull 1: cost NaN at budget 0"},
		{two, hull(two, []geom.Vertex{{Q: 0, C: math.Inf(1)}, {Q: 6, C: 0}}), "fake: coordinator hull 1: cost +Inf at budget 0"},
		{four, hull(four, honest, honest, probe, honest), "fake: coordinator hull 1: budget 1073741824 above t = 6"},
	} {
		tr := transport.NewLoopback([]transport.Handler{Handler(tc.p, 0, &fakeSite{n: 20}), tc.bad}, true)
		_, err := Run(context.Background(), tr, tc.p, &fakeReducer{})
		tr.Close()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("one-round %v: error %v, want prefix %q", tc.p.OneRound, err, tc.want)
		}
	}
}

// TestRunLocalRejects: the scaffold turns away, for every protocol at once
// and before any site is built, an instance with no sites, with an empty
// site, or with a budget that covers all the data.
func TestRunLocalRejects(t *testing.T) {
	for name, sizes := range map[string][]int{
		"no sites":   {},
		"empty site": {5, 0, 5},
		"t >= n":     {3, 3},
	} {
		sites, _, _, err := runFake(Params{Name: "fake", T: 6, Rho: 2, HullBase: 2}, sizes...)
		if err == nil || !strings.HasPrefix(err.Error(), "fake: ") {
			t.Errorf("%s: error %v, want one tagged \"fake:\"", name, err)
		}
		for i, st := range sites {
			if len(st.calls) != 0 {
				t.Errorf("%s: site %d ran %v", name, i, st.calls)
			}
		}
	}
	if _, _, _, err := runFake(Params{Name: "fake", T: 5, Rho: 2, HullBase: 2}, 3, 3); err != nil {
		t.Fatalf("t = n - 1 rejected: %v", err)
	}
}
