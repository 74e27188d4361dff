package protocol

import (
	"context"
	"testing"

	"dpc/internal/comm"
	"dpc/internal/geom"
	"dpc/internal/transport"
)

// FuzzRunHull: whatever hull bytes a hostile site ships beside an honest
// one, the coordinator returns an error or a Result whose budgets an honest
// fleet could have produced — each t_i <= t, and their sum within the
// (rho+1)t of Lemma 3.3 plus the pivot site's rounding — under one
// parameter and under four. It never panics or hangs.
func FuzzRunHull(f *testing.F) {
	probe := []geom.Vertex{{Q: 0, C: 1e15}, {Q: 1 << 30, C: 0}}
	honest := []geom.Vertex{{Q: 0, C: 400}, {Q: 4, C: 256}, {Q: 20, C: 0}}
	for _, msg := range []comm.Payload{
		comm.HullMsg{V: probe},
		comm.HullMsg{V: honest},
		comm.HullsMsg{Hulls: [][]geom.Vertex{honest, probe, honest, honest}},
	} {
		b, err := comm.Encode(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	two := Params{Name: "fake", T: 20, Rho: 2, HullBase: 2}
	four := two
	four.TauGrid = fourTaus
	f.Fuzz(func(t *testing.T, hull []byte) {
		for _, p := range []Params{two, four} {
			hostile := func(r int, in []byte) ([]byte, error) {
				if r == 0 {
					return hull, nil
				}
				return comm.Encode(comm.Float64sMsg{Vals: []float64{0}})
			}
			tr := transport.NewLoopback([]transport.Handler{Handler(p, 0, &fakeSite{n: 40}), hostile}, true)
			res, err := Run(context.Background(), tr, p, &fakeReducer{})
			tr.Close()
			if err != nil {
				continue
			}
			sum := 0
			for i, ti := range res.SiteBudgets {
				if ti < 0 || ti > p.T {
					t.Fatalf("%d parameters: site %d budget %d outside [0, %d]", max(len(p.TauGrid), 1), i, ti, p.T)
				}
				sum += ti
			}
			if float64(sum) > (p.Rho+1)*float64(p.T) {
				t.Fatalf("%d parameters: budgets %v sum past (rho+1)t", max(len(p.TauGrid), 1), res.SiteBudgets)
			}
		}
	})
}
