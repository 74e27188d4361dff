package client

import (
	"context"
	"fmt"

	"dpc/internal/central"
	"dpc/internal/core"
	"dpc/internal/jobwire"
	"dpc/internal/serve"
	"dpc/internal/transport"
)

// Local answers requests in-process: the request's Points (or
// Ground+Nodes) are sharded round-robin over req.Sites simulated sites and
// the full distributed protocol runs over the loopback (or, with
// req.Transport = "tcp", real localhost socket) backend. With req.Central
// set, point median/means requests run the Section 3.1 centralized solver
// instead, whose simulated levels are in-process protocol runs over chunks
// of req.Points and cancel like any other run (req.Sites does not apply).
// Which protocol answers which objective is not decided here: the
// request becomes a jobwire.Job (serve.JobSpec.Job) and the job runs itself.
type Local struct{}

// NewLocal creates the in-process backend.
func NewLocal() *Local { return &Local{} }

// Close implements Client (no resources held).
func (l *Local) Close() error { return nil }

// Do implements Client.
func (l *Local) Do(ctx context.Context, req Request) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	job, err := req.spec().Job()
	if err != nil {
		return nil, err
	}
	tkind, err := transport.ParseKind(req.Transport)
	if err != nil {
		return nil, err
	}
	sites := req.Sites
	if sites <= 0 {
		sites = serve.DefaultJobSites
	}
	data := req.data()
	if job.Len(data) == 0 {
		return nil, fmt.Errorf("client: local %s request carries no data (point objectives need Points, uncertain ones Ground and Nodes)", req.Objective)
	}
	if req.Central {
		if job.Kind != jobwire.KindPoint || job.Core.Objective == core.Center {
			return nil, fmt.Errorf("client: the centralized solver handles point median/means only")
		}
		sol, err := central.PartialMedian(ctx, req.Points, central.Config{
			K: req.K, T: req.T, Levels: req.Levels, Eps: req.Eps,
			Objective: job.Core.Objective, Opts: job.Core.LocalOpts,
		})
		if err != nil {
			return nil, err
		}
		return &Response{
			Centers:       sol.Centers,
			Cost:          sol.Cost,
			CostKind:      "global",
			OutlierBudget: sol.OutlierBudget,
			Backend:       "local",
		}, nil
	}
	res, err := job.OnTransport(tkind).RunLocal(ctx, data.Split(sites))
	if err != nil {
		return nil, err
	}
	return respond("local", job, data, res), nil
}
