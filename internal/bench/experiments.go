package bench

import (
	"context"
	"fmt"
	"math"

	"dpc/internal/alloc"
	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/exact"
	"dpc/internal/gen"
	"dpc/internal/geom"
	"dpc/internal/kcenter"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/uncertain"
)

// mkSites builds a planted instance split across s sites.
func mkSites(n, k, s int, outFrac float64, mode gen.PartitionMode, seed int64) (gen.Instance, [][]metric.Point) {
	in := gen.Mixture(gen.MixtureSpec{N: n, K: k, Dim: 2, OutlierFrac: outFrac, Seed: seed})
	parts := gen.Partition(in, s, mode, seed+1)
	return in, gen.SitePoints(in, parts)
}

// coreCfg applies the harness engine knobs to a distributed run config.
// The knobs never change a table's contents, only wall-clock.
func (o Options) coreCfg(cfg core.Config) core.Config {
	cfg.LocalOpts = o.solverOpts(cfg.LocalOpts)
	return cfg
}

// solverOpts applies the engine knobs to direct solver options.
func (o Options) solverOpts(opts kmedian.Options) kmedian.Options {
	ref := opts.Reference || o.Engine.Reference
	opts.Options = o.Engine
	opts.Reference = ref
	return opts
}

// uncCfg applies the engine knobs to an uncertain run config.
func (o Options) uncCfg(cfg uncertain.Config) uncertain.Config {
	cfg.LocalOpts = o.solverOpts(cfg.LocalOpts)
	return cfg
}

// centralMedianCost is the centralized reference: the same engine on the
// full data with the unicriterion budget t (the Copt(A,k,t) stand-in of
// Lemma 3.5).
func centralMedianCost(in gen.Instance, k, t int, obj core.Objective, seed int64, o Options) float64 {
	sol := kmedian.LocalSearch(core.CostsOver(in.Pts, obj), nil, k, float64(t), o.solverOpts(kmedian.Options{Seed: seed, Restarts: 3}))
	return sol.Cost
}

// E1MedianCommVsN: sweep n at fixed (s,k,t); communication must stay flat
// while the 1-round baseline is also flat but ~s*t/B heavier; quality stays
// O(1) of the centralized reference.
func E1MedianCommVsN(o Options) Table {
	t := Table{
		ID:     "E1",
		Title:  "(k,t)-median communication vs n",
		Claim:  "Table 1 row 1: total comm Otilde((sk+t)B) — no dependence on n",
		Header: []string{"n", "s", "k", "t", "2rnd-up(KB)", "1rnd-up(KB)", "gap", "cost/central", "sum(t_i)"},
	}
	ns := []int{1000, 2000, 4000}
	if o.Quick {
		ns = []int{600, 1200}
	}
	s, k, tt := 8, 4, 60
	for _, n := range ns {
		in, sites := mkSites(n, k, s, 0.05, gen.Uniform, o.Seed)
		two, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median}))
		if err != nil {
			panic(err)
		}
		one, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median, Variant: core.OneRound}))
		if err != nil {
			panic(err)
		}
		ref := centralMedianCost(in, k, tt, core.Median, o.Seed+5, o)
		cost := core.Evaluate(in.Pts, two.Centers, two.OutlierBudget, core.Median)
		sum := 0
		for _, b := range two.SiteBudgets {
			sum += b
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(s), fmt.Sprint(k), fmt.Sprint(tt),
			kb(two.Report.UpBytes), kb(one.Report.UpBytes),
			f2(float64(one.Report.UpBytes)/float64(two.Report.UpBytes)),
			f2(cost/ref), fmt.Sprint(sum))
	}
	t.Note("2-round bytes should be ~constant across rows; gap ~ (sk+st)/(sk+t); sum(t_i) <= 3t = %d", 3*tt)
	return t
}

// E2MedianCommVsST: sweep s and t; the 2-round protocol scales like sk+t,
// the 1-round baseline like sk+st.
func E2MedianCommVsST(o Options) Table {
	t := Table{
		ID:     "E2",
		Title:  "(k,t)-median communication vs s and t",
		Claim:  "Table 1 vs Table 2: Otilde((sk+t)B) against Otilde((sk+st)B)",
		Header: []string{"s", "t", "2rnd-up(KB)", "1rnd-up(KB)", "(sk+t)B(KB)", "(sk+st)B(KB)"},
	}
	n, k := 3000, 4
	if o.Quick {
		n = 1200
	}
	const bytesPerPoint = 2 * 8 // B: dim 2 float64
	ss := []int{4, 8, 16}
	tts := []int{40, 160}
	if o.Quick {
		ss = []int{4, 8}
		tts = []int{40}
	}
	for _, s := range ss {
		for _, tt := range tts {
			_, sites := mkSites(n, k, s, 0.05, gen.Uniform, o.Seed+int64(s*1000+tt))
			two, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median}))
			if err != nil {
				panic(err)
			}
			one, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median, Variant: core.OneRound}))
			if err != nil {
				panic(err)
			}
			predTwo := int64((s*k + tt) * bytesPerPoint)
			predOne := int64((s*k + s*tt) * bytesPerPoint)
			t.AddRow(fmt.Sprint(s), fmt.Sprint(tt),
				kb(two.Report.UpBytes), kb(one.Report.UpBytes), kb(predTwo), kb(predOne))
		}
	}
	t.Note("measured columns should track the prediction columns up to small constants")
	return t
}

// E3EpsSweep: the (1+eps)t bicriteria cost should decay toward the
// centralized reference as eps grows — the O(1+1/eps) shape of Theorem 3.6.
func E3EpsSweep(o Options) Table {
	t := Table{
		ID:     "E3",
		Title:  "median/means bicriteria cost vs eps",
		Claim:  "Table 1 rows 2-3: O(1+1/eps)-approx with (1+eps)t ignored",
		Header: []string{"objective", "eps", "cost/central", "up(KB)"},
	}
	n, s, k, tt := 1500, 6, 4, 75
	if o.Quick {
		n, tt = 800, 40
	}
	for _, obj := range []core.Objective{core.Median, core.Means} {
		in, sites := mkSites(n, k, s, 0.05, gen.Uniform, o.Seed+int64(obj))
		ref := centralMedianCost(in, k, tt, obj, o.Seed+9, o)
		for _, eps := range []float64{0.25, 0.5, 1, 2, 4} {
			res, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: obj, Eps: eps}))
			if err != nil {
				panic(err)
			}
			cost := core.Evaluate(in.Pts, res.Centers, res.OutlierBudget, obj)
			t.AddRow(obj.String(), f2(eps), f3(cost/ref), kb(res.Report.UpBytes))
		}
	}
	t.Note("cost/central should not increase with eps (more ignorable points help)")
	return t
}

// E4Center: Algorithm 2 against the 1-round baseline and a centralized
// Charikar solve.
func E4Center(o Options) Table {
	t := Table{
		ID:     "E4",
		Title:  "(k,t)-center: Algorithm 2",
		Claim:  "Table 1 row 4: O(1)-approx, comm Otilde((sk+t)B), site time O((k+t)n_i)",
		Header: []string{"s", "2rnd-up(KB)", "1rnd-up(KB)", "gap", "radius/central", "coord-pts"},
	}
	n, k, tt := 2000, 4, 100
	if o.Quick {
		n, tt = 800, 50
	}
	ss := []int{4, 8, 16}
	if o.Quick {
		ss = []int{4, 8}
	}
	for _, s := range ss {
		in, sites := mkSites(n, k, s, 0.05, gen.Uniform, o.Seed+int64(s))
		two, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Center}))
		if err != nil {
			panic(err)
		}
		one, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Center, Variant: core.OneRound}))
		if err != nil {
			panic(err)
		}
		central := kcenter.PartialOpt(in.Points(), nil, k, float64(tt), o.Engine)
		radius := core.Evaluate(in.Pts, two.Centers, two.OutlierBudget, core.Center)
		ratio := math.Inf(1)
		if central.Radius > 0 {
			ratio = radius / central.Radius
		}
		t.AddRow(fmt.Sprint(s), kb(two.Report.UpBytes), kb(one.Report.UpBytes),
			f2(float64(one.Report.UpBytes)/float64(two.Report.UpBytes)),
			f2(ratio), fmt.Sprint(two.CoordinatorClients))
	}
	t.Note("gap grows with s (the st term); radius ratio stays O(1)")
	return t
}

// E5Uncertain: Algorithm 3's communication is independent of the node
// support size m; the ship-distributions baseline pays t*I.
func E5Uncertain(o Options) Table {
	t := Table{
		ID:     "E5",
		Title:  "uncertain median: compressed graph vs shipping distributions",
		Claim:  "Table 1 row 5: comm as in the deterministic case (B+8 per node, not I)",
		Header: []string{"m", "alg3-up(KB)", "naive-up(KB)", "gap", "alg3-cost", "naive-cost"},
	}
	n, s, k, tt := 400, 4, 3, 40
	if o.Quick {
		n, tt = 200, 20
	}
	ms := []int{2, 4, 8, 16}
	if o.Quick {
		ms = []int{2, 8}
	}
	for _, m := range ms {
		in := gen.UncertainMixture(gen.UncertainSpec{N: n, K: k, Support: m, OutlierFrac: 0.08, Seed: o.Seed + int64(m)})
		parts := gen.PartitionNodes(in, s, gen.Uniform, o.Seed+1)
		sites := gen.SiteNodes(in, parts)
		smart, err := uncertain.Run(in.Ground, sites, o.uncCfg(uncertain.Config{K: k, T: tt}), uncertain.Median)
		if err != nil {
			panic(err)
		}
		naive, err := uncertain.Run(in.Ground, sites, o.uncCfg(uncertain.Config{K: k, T: tt, Variant: uncertain.OneRoundShipDists}), uncertain.Median)
		if err != nil {
			panic(err)
		}
		cs := uncertain.EvalMedian(in.Ground, in.Nodes, smart.Centers, smart.OutlierBudget)
		cn := uncertain.EvalMedian(in.Ground, in.Nodes, naive.Centers, naive.OutlierBudget)
		t.AddRow(fmt.Sprint(m), kb(smart.Report.UpBytes), kb(naive.Report.UpBytes),
			f2(float64(naive.Report.UpBytes)/float64(smart.Report.UpBytes)), f2(cs), f2(cn))
	}
	t.Note("alg3 bytes flat in m; naive bytes grow ~linearly in m (I = m*(4+8) bytes)")
	return t
}

// E6CenterG: Algorithm 4's communication components — skB + tI + s logDelta.
func E6CenterG(o Options) Table {
	t := Table{
		ID:     "E6",
		Title:  "uncertain center-g: Algorithm 4",
		Claim:  "Theorem 5.14: comm Otilde(skB + tI + s logDelta); tau grid O(logDelta)",
		Header: []string{"outlierBox", "logDelta~", "tauGrid", "up(KB)", "tau-hat", "MC objective"},
	}
	n, s, k, tt, m := 120, 3, 3, 8, 3
	if o.Quick {
		n = 60
	}
	boxes := []float64{1e3, 1e4, 1e5}
	if o.Quick {
		boxes = []float64{1e3, 1e5}
	}
	for _, box := range boxes {
		in := gen.UncertainMixture(gen.UncertainSpec{
			N: n, K: k, Support: m, OutlierFrac: 0.07, OutlierBox: box, Seed: o.Seed,
		})
		parts := gen.PartitionNodes(in, s, gen.Uniform, o.Seed+2)
		sites := gen.SiteNodes(in, parts)
		res, err := uncertain.Run(in.Ground, sites, o.uncCfg(uncertain.Config{K: k, T: tt}), uncertain.CenterG)
		if err != nil {
			panic(err)
		}
		dmin, dmax := in.Ground.MinMax()
		obj := uncertain.EvalCenterG(in.Ground, in.Nodes, res.Centers, res.OutlierBudget, 100, o.Seed)
		t.AddRow(fmt.Sprintf("%.0e", box), f2(math.Log2(dmax/dmin)),
			fmt.Sprint(len(res.TauGrid)), kb(res.Report.UpBytes), f2(res.Tau), f2(obj))
	}
	t.Note("tauGrid (and round-1 bytes) grow with logDelta; round-2 bytes carry t*I")
	return t
}

// E7Subquadratic: runtime scaling of direct vs simulated solvers.
func E7Subquadratic(o Options) Table {
	t := Table{
		ID:     "E7",
		Title:  "centralized (k,t)-median runtime scaling",
		Claim:  "Theorem 3.10: simulation reduces the runtime exponent (2 -> 4/3 -> 8/7)",
		Header: []string{"n", "direct(s)", "lvl1(s)", "lvl2(s)", "lvl1 cost/direct", "lvl2 cost/direct"},
	}
	// The top row is deliberately past metric.MaxCachePoints: the direct
	// solver recomputes distances there, which is exactly the regime the
	// pivot index prunes (cached sizes only save a memoized read per skip).
	// Dim 16 keeps the per-distance cost representative of real feature
	// vectors — the exponents in the claim are dimension-independent, but a
	// metric that costs a handful of flops would mis-measure any engine
	// whose win is avoided distance evaluations.
	ns := []int{1000, 2000, 4000, 8000}
	if o.Quick {
		ns = []int{800, 1600}
	}
	k := 3
	var prev [3]float64
	var prevN int
	for _, n := range ns {
		in := gen.Mixture(gen.MixtureSpec{N: n, K: k, Dim: 16, OutlierFrac: 0.03, Seed: o.Seed})
		tt := n / 50
		opts := o.solverOpts(kmedian.Options{MaxIters: 10, Seed: o.Seed})
		var secs [3]float64
		var costs [3]float64
		for lvl := 0; lvl <= 2; lvl++ {
			sol, err := central.PartialMedian(context.Background(), in.Pts, central.Config{K: k, T: tt, Levels: lvl, Opts: opts})
			if err != nil {
				panic(err)
			}
			secs[lvl] = sol.Elapsed.Seconds()
			costs[lvl] = sol.Cost
		}
		t.AddRow(fmt.Sprint(n), f3(secs[0]), f3(secs[1]), f3(secs[2]),
			f2(costs[1]/costs[0]), f2(costs[2]/costs[0]))
		if prevN > 0 {
			lg := math.Log(float64(n) / float64(prevN))
			t.Note("empirical exponents %d->%d: direct %.2f, lvl1 %.2f, lvl2 %.2f",
				prevN, n,
				math.Log(secs[0]/prev[0])/lg,
				math.Log(secs[1]/prev[1])/lg,
				math.Log(secs[2]/prev[2])/lg)
		}
		prev, prevN = secs, n
	}
	return t
}

// E8OneRoundFormula: measured one-round communication against the
// closed-form (sk+st)B prediction across objectives.
func E8OneRoundFormula(o Options) Table {
	t := Table{
		ID:     "E8",
		Title:  "Table 2 one-round rows: measured vs formula",
		Claim:  "1-round comm Otilde((sk+st)B) for median/means/center",
		Header: []string{"objective", "s", "t", "up(KB)", "(sk+st)B(KB)", "measured/pred"},
	}
	n, k := 2000, 4
	if o.Quick {
		n = 900
	}
	const bytesPerPoint = 16
	for _, obj := range []core.Objective{core.Median, core.Means, core.Center} {
		for _, s := range []int{4, 12} {
			tt := 80
			_, sites := mkSites(n, k, s, 0.05, gen.Uniform, o.Seed+int64(obj)*31+int64(s))
			res, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: obj, Variant: core.OneRound}))
			if err != nil {
				panic(err)
			}
			pred := int64((s*k + s*tt) * bytesPerPoint)
			t.AddRow(obj.String(), fmt.Sprint(s), fmt.Sprint(tt),
				kb(res.Report.UpBytes), kb(pred),
				f2(float64(res.Report.UpBytes)/float64(pred)))
		}
	}
	t.Note("measured/pred should be a stable O(1) constant (weights+framing overhead)")
	return t
}

// E9NoShip: the Theorem 3.8 variant's communication stays flat as t grows.
func E9NoShip(o Options) Table {
	t := Table{
		ID:     "E9",
		Title:  "Theorem 3.8: outlier counts instead of outlier points",
		Claim:  "comm Otilde(s/delta + sk B) — no t*B term; ignores (2+eps+delta)t",
		Header: []string{"t", "noship-up(KB)", "2rnd-up(KB)", "noship cost/central", "2rnd cost/central"},
	}
	n, s, k := 2500, 6, 4
	if o.Quick {
		n = 1000
	}
	tts := []int{20, 80, 320}
	if o.Quick {
		tts = []int{20, 160}
	}
	for _, tt := range tts {
		in, sites := mkSites(n, k, s, 0.15, gen.Uniform, o.Seed+int64(tt))
		ref := centralMedianCost(in, k, tt, core.Median, o.Seed+3, o)
		noship, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median, Variant: core.TwoRoundNoOutliers}))
		if err != nil {
			panic(err)
		}
		ship, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median}))
		if err != nil {
			panic(err)
		}
		cn := core.Evaluate(in.Pts, noship.Centers, noship.OutlierBudget, core.Median)
		cs := core.Evaluate(in.Pts, ship.Centers, ship.OutlierBudget, core.Median)
		t.AddRow(fmt.Sprint(tt), kb(noship.Report.UpBytes), kb(ship.Report.UpBytes),
			f3(cn/ref), f3(cs/ref))
	}
	t.Note("noship bytes ~flat in t; shipping bytes grow ~linearly in t")
	return t
}

// E10Compression: Figure 1's compressed graph preserves optimal cost within
// the Lemma 5.3/5.4 constants.
func E10Compression(o Options) Table {
	t := Table{
		ID:     "E10",
		Title:  "compressed graph cost sandwich",
		Claim:  "Lemma 5.3: C_G <= 5 C_A; Lemma 5.4: C_A <= 2 C_G",
		Header: []string{"trial", "C_A(collapsed centers)", "C_G", "C_G/C_A", "within [1/2, 5]"},
	}
	trials := 8
	if o.Quick {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		in := gen.UncertainMixture(gen.UncertainSpec{
			N: 9, K: 2, Support: 3, Scatter: 2, Seed: o.Seed + int64(trial),
		})
		col := uncertain.Collapse(in.Ground, in.Nodes, false, uncertain.FullGround)
		cg := exact.Solve(col, nil, 2, 1, exact.Sum).Cost
		ca := exact.Solve(uncertain.NodeCosts{G: in.Ground, Nodes: in.Nodes, Centers: col.Y}, nil, 2, 1, exact.Sum).Cost
		ratio := cg / ca
		ok := ratio >= 0.5-1e-9 && ratio <= 5+1e-9
		t.AddRow(fmt.Sprint(trial), f3(ca), f3(cg), f3(ratio), fmt.Sprint(ok))
	}
	return t
}

// E11Allocation: the rank-pivot allocation exactly matches the DP optimum.
func E11Allocation(o Options) Table {
	t := Table{
		ID:     "E11",
		Title:  "outlier budget allocation optimality",
		Claim:  "Lemma 3.3: t_i minimize sum f_i(t_i) s.t. sum t_i <= rho t",
		Header: []string{"trial", "sites", "rank", "greedy", "DP optimum", "equal", "sum(t_i)"},
	}
	trials := 10
	if o.Quick {
		trials = 5
	}
	rng := newRand(o.Seed)
	for trial := 0; trial < trials; trial++ {
		s := 2 + rng.Intn(5)
		fns := make([]geom.ConvexFn, s)
		for i := range fns {
			fns[i] = randomCurve(rng, 5+rng.Intn(40))
		}
		R := 5 + rng.Intn(60)
		_, ts := alloc.Allocate(fns, R)
		var got float64
		sum := 0
		for i, f := range fns {
			got += f.Eval(ts[i])
			sum += ts[i]
		}
		want := dpOptimum(fns, R)
		t.AddRow(fmt.Sprint(trial), fmt.Sprint(s), fmt.Sprint(R),
			f3(got), f3(want), fmt.Sprint(math.Abs(got-want) <= 1e-6*(1+want)), fmt.Sprint(sum))
	}
	return t
}

// E12SiteSpeedup: with balanced partitions, site wall time drops ~1/s.
func E12SiteSpeedup(o Options) Table {
	t := Table{
		ID:     "E12",
		Title:  "site phase wall time vs s",
		Claim:  "Theorem 3.6: total running time Otilde(n^2/s) with balanced partitions",
		Header: []string{"s", "siteWall(ms)", "siteWork(ms)", "coord(ms)", "up(KB)"},
	}
	n, k, tt := 4000, 4, 60
	if o.Quick {
		n = 1500
	}
	for _, s := range []int{2, 4, 8, 16} {
		_, sites := mkSites(n, k, s, 0.05, gen.Uniform, o.Seed+int64(s))
		res, err := core.Run(sites, o.coreCfg(core.Config{K: k, T: tt, Objective: core.Median}))
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(s),
			fmt.Sprint(res.Report.SiteWall.Milliseconds()),
			fmt.Sprint(res.Report.SiteWork.Milliseconds()),
			fmt.Sprint(res.Report.CoordWork.Milliseconds()),
			kb(res.Report.UpBytes))
	}
	t.Note("siteWall should fall as s grows (n_i = n/s and site solves are ~quadratic in n_i)")
	return t
}
