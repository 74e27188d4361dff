// Package jobwire defines the job frame a coordinator (dpc-cluster -listen,
// dpc-server's remote datasets, or any client.Cluster backend) ships to its
// site daemons before each protocol run — the only multi-process dialect in
// the repository: a one-shot run is a fleet that is sent one job and then
// closed — and it is the one place that maps a job kind to code. A Job is
// the tagged union of the two run configurations; its methods are the
// four things anyone does with one: build a site's half (SiteHandler, and
// Factory / ServeJobs for a daemon serving frame after frame), run the
// coordinator's half over a connected transport (RunOver), run both halves
// in-process over shards (RunLocal), and measure the true cost of an answer
// (Evaluate). Fleet is the coordinator's end of persistent site daemons,
// the one owner of their connections. The backends in dpc/client and
// internal/serve call these and never name a protocol package.
//
// A frame is a two-byte envelope — magic, kind — followed by the kind's
// configuration as JSON, one codec for every kind (float64 values
// round-trip exactly), so one connected site fleet serves every protocol:
//
//   - KindPoint: Algorithm 1/2 over the site's point shard (core.Config).
//   - KindUncertain: Algorithm 3 (uncertain median/means/center-pp) or
//     Algorithm 4 (uncertain center-g) over the site's node shard (the
//     objective and an uncertain.Config).
//
// The coordinator-local Transport and Topology stay out of the frame. A site
// half applies defaults and validation to what it decodes, as a coordinator
// does, and transport.JobsHello versions the layout.
package jobwire

import (
	"context"
	"encoding/json"
	"fmt"

	"dpc/internal/core"
	"dpc/internal/dataio"
	"dpc/internal/kcenter"
	"dpc/internal/metric"
	"dpc/internal/protocol"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// Kind discriminates the protocol a job frame starts.
type Kind byte

// Job kinds.
const (
	// KindPoint runs Algorithm 1/2 over point shards.
	KindPoint Kind = 1
	// KindUncertain runs Algorithm 3 or 4 over uncertain node shards.
	KindUncertain Kind = 2
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindUncertain:
		return "uncertain"
	}
	return fmt.Sprintf("jobwire.Kind(%d)", byte(k))
}

// magic is the first byte of a job frame.
const magic = 0xDC

// Job is one protocol run: the tagged union of the two run
// configurations — what a job frame carries, and what every backend builds
// (serve.JobSpec.Job) and then asks to run itself.
type Job struct {
	Kind Kind

	// Core is the run configuration for KindPoint.
	Core core.Config
	// Obj / Unc parameterize KindUncertain.
	Obj uncertain.Objective
	Unc uncertain.Config
}

// uncertainWire is the JSON payload of a KindUncertain frame.
type uncertainWire struct {
	Obj *uncertain.Objective `json:"obj"`
	Cfg *uncertain.Config    `json:"cfg"`
}

// body points at what a frame of j's kind carries: the value Encode
// marshals and Decode fills.
func (j *Job) body() (any, error) {
	switch j.Kind {
	case KindPoint:
		return &j.Core, nil
	case KindUncertain:
		return &uncertainWire{Obj: &j.Obj, Cfg: &j.Unc}, nil
	}
	return nil, fmt.Errorf("jobwire: unknown job kind %v", j.Kind)
}

// Encode serializes a job frame.
func Encode(j Job) ([]byte, error) {
	body, err := j.body()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("jobwire: %v job: %w", j.Kind, err)
	}
	return append([]byte{magic, byte(j.Kind)}, b...), nil
}

// Decode parses a job frame.
func Decode(b []byte) (Job, error) {
	if len(b) < 2 {
		return Job{}, fmt.Errorf("jobwire: truncated job frame (%d bytes)", len(b))
	}
	if b[0] != magic {
		return Job{}, fmt.Errorf("jobwire: bad job frame magic 0x%02x", b[0])
	}
	j := Job{Kind: Kind(b[1])}
	body, err := j.body()
	if err != nil {
		return Job{}, err
	}
	if err := json.Unmarshal(b[2:], body); err != nil {
		return Job{}, fmt.Errorf("jobwire: %v job: %w", j.Kind, err)
	}
	return j, nil
}

// SiteData is the state a persistent site holds across jobs: its point
// shard (for point jobs), its uncertain node shard plus the shared ground
// set (for uncertain jobs), and two optional long-lived memos over the
// point shard: a distance cache and a farthest-first traversal. Any subset
// may be nil; a job frame of a kind the site has no data for fails that job
// loudly instead of computing on garbage.
type SiteData struct {
	Site  int
	Pts   []metric.Point
	Cache *metric.DistCache
	Trav  *kcenter.TraversalMemo
	G     *uncertain.Ground
	Nodes []uncertain.Node
}

// ServeJobs runs the whole site loop over an established connection: it
// verifies the coordinator's job-frame hello marker (a site must never be
// silently paired with something that speaks another protocol), builds the
// long-lived memos over the point shard that were not provided — a distance
// cache when the shard fits the memoization cap (persistentCache) and a
// traversal memo (kcenter.TraversalMemo) — and serves one handler per job
// frame via Factory until the coordinator closes. wrap, when non-nil,
// decorates each job's handler (dpc-site -v hangs its logging off it). It
// is the single implementation behind dpc-site and client.ServeSite.
func ServeJobs(sc *transport.Site, d SiteData, wrap func(job int, blob []byte, h transport.Handler) transport.Handler) error {
	if string(sc.Hello()) != transport.JobsHello {
		return fmt.Errorf("jobwire: coordinator does not speak job frames (welcome %q, want %q)",
			sc.Hello(), transport.JobsHello)
	}
	if d.Cache == nil {
		d.Cache = persistentCache(d.Pts)
	}
	if d.Trav == nil {
		d.Trav = new(kcenter.TraversalMemo)
	}
	factory := Factory(d)
	return sc.ServeJobs(func(job int, blob []byte) (transport.Handler, error) {
		h, err := factory(job, blob)
		if err != nil || wrap == nil {
			return h, err
		}
		return wrap(job, blob, h), nil
	})
}

// persistentCache is the private distance memo a persistent site keeps over
// its shard for as long as its connection lives, or nil when the shard is
// empty or above metric.MaxCachePoints. Deliberately not metric.Memoizes:
// that policy prices a memo built per job or shared through a pool, and says
// no at low dimension; this one is built once over an immutable, unshared
// shard and read by every job after. Since center jobs read their traversal
// from the site's TraversalMemo, and round 1's preclustering off that
// traversal's record (AssignPrefixOpt), what it still serves is every other
// distance a job asks again: the drop scan of a center job's no-outlier
// variant, and the local solves of median and means jobs on a fleet.
func persistentCache(pts []metric.Point) *metric.DistCache {
	if len(pts) == 0 || len(pts) > metric.MaxCachePoints {
		return nil
	}
	return metric.NewDistCache(metric.NewPoints(pts))
}

// Factory returns the transport.Site.ServeJobs factory for a persistent
// site holding d: each job frame is decoded and turned into its site
// handler (SiteHandler), closing over the site-held data so the shard and
// its memos stay warm across jobs. It is the single implementation
// behind dpc-site, the client.Cluster tests and the dpc-server remote e2e
// tests.
func Factory(d SiteData) func(job int, blob []byte) (transport.Handler, error) {
	return func(job int, blob []byte) (transport.Handler, error) {
		j, err := Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", job, err)
		}
		h, err := j.SiteHandler(d)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", job, err)
		}
		return h, nil
	}
}

// SiteHandler builds the site half of j for a site holding d. A point job
// runs over d.Cache when the site holds one (it outlives the job; see
// core.NewSiteHandlerOracle) and builds a private oracle per the engine
// policy otherwise, for one-shot runs and long-lived sites alike; a center
// job reads its traversal from d.Trav when the site holds one
// (core.NewPersistentSiteHandler). A job of a kind the site has no data for
// is an error.
func (j Job) SiteHandler(d SiteData) (transport.Handler, error) {
	switch {
	case j.Kind == KindPoint && len(d.Pts) == 0:
		return nil, fmt.Errorf("site %d holds no point shard", d.Site)
	case j.Kind == KindPoint:
		var o metric.Oracle
		if d.Cache != nil {
			o = d.Cache
		}
		return core.NewPersistentSiteHandler(j.Core, d.Site, d.Pts, o, d.Trav)
	case len(d.Nodes) == 0 || d.G == nil:
		return nil, fmt.Errorf("site %d holds no uncertain shard", d.Site)
	case j.Kind == KindUncertain:
		return uncertain.NewSiteHandler(d.G, d.Nodes, j.Unc, j.Obj, d.Site)
	}
	return nil, fmt.Errorf("jobwire: unhandled kind %v", j.Kind)
}

// RunOver runs the coordinator half of j over a transport whose sites
// already serve j's site handlers. g is the ground set uncertain jobs
// share (the paper's common knowledge); point jobs ignore it. Cancelling
// ctx aborts the run at its next round boundary with ctx.Err().
func (j Job) RunOver(ctx context.Context, tr transport.Transport, g *uncertain.Ground) (protocol.Result, error) {
	switch j.Kind {
	case KindPoint:
		return core.RunOverCtx(ctx, tr, j.Core)
	case KindUncertain:
		return uncertain.RunOverCtx(ctx, g, tr, j.Unc, j.Obj)
	}
	return protocol.Result{}, fmt.Errorf("jobwire: unhandled kind %v", j.Kind)
}

// Data is a whole instance as one process holds it: points for KindPoint
// jobs, the ground set and nodes for uncertain jobs. Either half may
// be absent.
type Data struct {
	Pts   []metric.Point
	G     *uncertain.Ground
	Nodes []uncertain.Node
}

// Shards is an instance split over in-process sites, one shard per site.
type Shards struct {
	Pts   [][]metric.Point
	G     *uncertain.Ground
	Nodes [][]uncertain.Node
}

// Split shards d round-robin (item j to site j mod sites) — the sharding
// every backend and the daemons' -sites flag share.
func (d Data) Split(sites int) Shards {
	return Shards{Pts: dataio.SplitRoundRobin(d.Pts, sites), G: d.G, Nodes: dataio.SplitNodesRoundRobin(d.Nodes, sites)}
}

// Len is the number of input items of j's kind that d holds; 0 means j can
// neither run on d nor be evaluated against it.
func (j Job) Len(d Data) int {
	switch {
	case j.Kind == KindPoint:
		return len(d.Pts)
	case d.G == nil:
		return 0
	}
	return len(d.Nodes)
}

// OnTransport returns j with its in-process fleet placed on the given wire
// backend: the coordinator-local Transport field of the configuration j
// carries, which RunLocal reads (like Topology, it is not shipped to sites).
func (j Job) OnTransport(k transport.Kind) Job {
	j.Core.Transport, j.Unc.Transport = k, k
	return j
}

// RunLocal runs both halves of j in-process, one site per shard, over the
// wire backend and topology j's configuration names.
func (j Job) RunLocal(ctx context.Context, sh Shards) (protocol.Result, error) {
	switch j.Kind {
	case KindPoint:
		return core.RunCtx(ctx, sh.Pts, j.Core)
	case KindUncertain:
		return uncertain.RunCtx(ctx, sh.G, sh.Nodes, j.Unc, j.Obj)
	}
	return protocol.Result{}, fmt.Errorf("jobwire: unhandled kind %v", j.Kind)
}

// CenterGCostSamples is the Monte-Carlo sample count behind every reported
// center-g cost; one constant, so every backend's estimate is the same
// number.
const CenterGCostSamples = 200

// Evaluate computes the true objective of centers on the whole instance d —
// the measuring stick of every backend (a coordinator never sees the full
// data) — and says what kind of number it is: "global", or "estimate" for
// center-g's Monte Carlo, seeded with the job's seed. When d holds no data
// of j's kind it returns 0 and "".
func (j Job) Evaluate(d Data, centers []metric.Point, budget float64) (cost float64, kind string) {
	switch {
	case j.Len(d) == 0:
		return 0, ""
	case j.Kind == KindPoint:
		return core.Evaluate(d.Pts, centers, budget, j.Core.Objective), "global"
	case j.Obj == uncertain.CenterG:
		return uncertain.EvalCenterG(d.G, d.Nodes, centers, budget, CenterGCostSamples, j.Unc.LocalOpts.Seed), "estimate"
	case j.Obj == uncertain.Means:
		return uncertain.EvalMeans(d.G, d.Nodes, centers, budget), "global"
	case j.Obj == uncertain.CenterPP:
		return uncertain.EvalCenterPP(d.G, d.Nodes, centers, budget), "global"
	}
	return uncertain.EvalMedian(d.G, d.Nodes, centers, budget), "global"
}
