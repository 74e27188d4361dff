package client

import (
	"context"
	"fmt"

	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/jobwire"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// Local answers requests in-process: the request's Points (or
// Ground+Nodes) are sharded round-robin over req.Sites simulated sites and
// the full distributed protocol runs over the loopback (or, with
// req.Transport = "tcp", real localhost socket) backend. With req.Central
// set, point median/means requests run the Section 3.1 centralized solver
// instead. It subsumes the one-shot Run / RunUncertain / RunCenterG /
// Centralized entrypoints behind the unified Request.
type Local struct{}

// NewLocal creates the in-process backend.
func NewLocal() *Local { return &Local{} }

// Close implements Client (no resources held).
func (l *Local) Close() error { return nil }

// Do implements Client.
func (l *Local) Do(ctx context.Context, req Request) (*Response, error) {
	spec := req.spec()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	kind, err := req.kind()
	if err != nil {
		return nil, err
	}
	tkind, err := transport.ParseKind(req.Transport)
	if err != nil {
		return nil, err
	}
	sites := req.Sites
	if sites <= 0 {
		sites = 8
	}

	if kind != jobwire.KindPoint {
		if req.Central {
			return nil, fmt.Errorf("client: the centralized solver handles point median/means only")
		}
		if req.Ground == nil || len(req.Nodes) == 0 {
			return nil, fmt.Errorf("client: local %s request needs Ground and Nodes", req.Objective)
		}
		if req.T >= len(req.Nodes) {
			return nil, fmt.Errorf("client: t = %d out of range [0, %d)", req.T, len(req.Nodes))
		}
		shards := dataio.SplitNodesRoundRobin(req.Nodes, sites)
		if kind == jobwire.KindCenterG {
			cfg, err := spec.CenterGConfig()
			if err != nil {
				return nil, err
			}
			cfg.Transport = tkind
			res, err := uncertain.RunCenterGCtx(ctx, req.Ground, shards, cfg)
			if err != nil {
				return nil, err
			}
			return l.finish(req, res.Centers, res.OutlierBudget, res.SiteBudgets, res.Report, res.Tau)
		}
		cfg, obj, err := spec.UncertainConfig()
		if err != nil {
			return nil, err
		}
		cfg.Transport = tkind
		res, err := uncertain.RunCtx(ctx, req.Ground, shards, cfg, obj)
		if err != nil {
			return nil, err
		}
		return l.finish(req, res.Centers, res.OutlierBudget, res.SiteBudgets, res.Report, 0)
	}

	if len(req.Points) == 0 {
		return nil, fmt.Errorf("client: local %s request needs Points", req.Objective)
	}
	cfg, err := spec.CoreConfig()
	if err != nil {
		return nil, err
	}
	if req.Central {
		if cfg.Objective == core.Center {
			return nil, fmt.Errorf("client: the centralized solver handles median/means only")
		}
		// The centralized solver is one indivisible solve; honor the
		// context at its boundary (a cancelled request never starts it).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sol := central.PartialMedian(req.Points, central.Config{
			K: req.K, T: req.T, Levels: req.Levels, Eps: req.Eps,
			Objective: cfg.Objective, Engine: cfg.Engine,
			Opts: kmedian.Options{Seed: req.Seed, Options: cfg.Options},
		})
		return &Response{
			Centers:       sol.Centers,
			Cost:          sol.Cost,
			CostKind:      "global",
			OutlierBudget: sol.OutlierBudget,
			Backend:       "local",
		}, nil
	}
	if req.T >= len(req.Points) {
		return nil, fmt.Errorf("client: t = %d out of range [0, %d)", req.T, len(req.Points))
	}
	cfg.Transport = tkind
	shards := dataio.SplitRoundRobin(req.Points, sites)
	res, err := core.RunCtx(ctx, shards, cfg)
	if err != nil {
		return nil, err
	}
	return l.finish(req, res.Centers, res.OutlierBudget, res.SiteBudgets, res.Report, 0)
}

// finish assembles the unified response, evaluating the true global cost
// against the request's in-memory data.
func (l *Local) finish(req Request, centers []metric.Point, budget float64, siteBudgets []int, rep Report, tau float64) (*Response, error) {
	cost, costKind, err := evalObjective(req, centers, budget)
	if err != nil {
		return nil, err
	}
	return &Response{
		Centers:       centers,
		Cost:          cost,
		CostKind:      costKind,
		OutlierBudget: budget,
		SiteBudgets:   siteBudgets,
		Rounds:        rep.Rounds,
		UpBytes:       rep.UpBytes,
		DownBytes:     rep.DownBytes,
		Tree:          rep.Tree,
		Tau:           tau,
		Backend:       "local",
	}, nil
}

// evalPoints is core.Evaluate under the client package's vocabulary.
func evalPoints(pts, centers []Point, budget float64, obj core.Objective) float64 {
	return core.Evaluate(pts, centers, budget, obj)
}
