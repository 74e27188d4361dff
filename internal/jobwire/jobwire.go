// Package jobwire defines the job frame a coordinator (dpc-cluster -listen,
// dpc-server's remote datasets, or any client.Cluster backend) ships to its
// site daemons before each protocol run, and the site-side factory that
// turns such a frame into the right transport.Handler. It is the only
// multi-process dialect in the repository: a one-shot run is a fleet that
// is sent one job and then closed.
//
// A frame is a two-byte envelope — magic, kind — followed by the kind's
// configuration, so one connected site fleet serves every protocol:
//
//   - KindPoint: Algorithm 1/2 over the site's point shard (the payload is
//     the exact core.EncodeConfig record, so its byte-parity guarantees
//     carry over).
//   - KindUncertain: Algorithm 3 (uncertain median/means/center-pp) over
//     the site's node shard; the config crosses as JSON (float64 values
//     round-trip exactly through encoding/json).
//   - KindCenterG: Algorithm 4 (uncertain center-g) over the node shard.
package jobwire

import (
	"encoding/json"
	"fmt"

	"dpc/internal/core"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// Kind discriminates the protocol a job frame starts.
type Kind byte

// Job kinds.
const (
	// KindPoint runs Algorithm 1/2 over point shards.
	KindPoint Kind = 1
	// KindUncertain runs Algorithm 3 over uncertain node shards.
	KindUncertain Kind = 2
	// KindCenterG runs Algorithm 4 over uncertain node shards.
	KindCenterG Kind = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindUncertain:
		return "uncertain"
	case KindCenterG:
		return "centerg"
	}
	return fmt.Sprintf("jobwire.Kind(%d)", byte(k))
}

// magic is the first byte of a job frame.
const magic = 0xDC

// Job is one decoded job frame.
type Job struct {
	Kind Kind

	// Core is the run configuration for KindPoint.
	Core core.Config
	// Obj / Unc parameterize KindUncertain.
	Obj uncertain.Objective
	Unc uncertain.Config
	// CenterG parameterizes KindCenterG.
	CenterG uncertain.CenterGConfig
}

// uncertainWire is the JSON payload of a KindUncertain frame.
type uncertainWire struct {
	Obj uncertain.Objective `json:"obj"`
	Cfg uncertain.Config    `json:"cfg"`
}

// Encode serializes a job frame.
func Encode(j Job) ([]byte, error) {
	switch j.Kind {
	case KindPoint:
		return append([]byte{magic, byte(KindPoint)}, core.EncodeConfig(j.Core)...), nil
	case KindUncertain:
		body, err := json.Marshal(uncertainWire{Obj: j.Obj, Cfg: j.Unc})
		if err != nil {
			return nil, fmt.Errorf("jobwire: %w", err)
		}
		return append([]byte{magic, byte(KindUncertain)}, body...), nil
	case KindCenterG:
		body, err := json.Marshal(j.CenterG)
		if err != nil {
			return nil, fmt.Errorf("jobwire: %w", err)
		}
		return append([]byte{magic, byte(KindCenterG)}, body...), nil
	}
	return nil, fmt.Errorf("jobwire: unknown job kind %v", j.Kind)
}

// Decode parses a job frame.
func Decode(b []byte) (Job, error) {
	if len(b) < 2 {
		return Job{}, fmt.Errorf("jobwire: truncated job frame (%d bytes)", len(b))
	}
	if b[0] != magic {
		return Job{}, fmt.Errorf("jobwire: bad job frame magic 0x%02x", b[0])
	}
	body := b[2:]
	switch Kind(b[1]) {
	case KindPoint:
		cfg, err := core.DecodeConfig(body)
		if err != nil {
			return Job{}, fmt.Errorf("jobwire: point job: %w", err)
		}
		return Job{Kind: KindPoint, Core: cfg}, nil
	case KindUncertain:
		var w uncertainWire
		if err := json.Unmarshal(body, &w); err != nil {
			return Job{}, fmt.Errorf("jobwire: uncertain job: %w", err)
		}
		return Job{Kind: KindUncertain, Obj: w.Obj, Unc: w.Cfg}, nil
	case KindCenterG:
		var cfg uncertain.CenterGConfig
		if err := json.Unmarshal(body, &cfg); err != nil {
			return Job{}, fmt.Errorf("jobwire: center-g job: %w", err)
		}
		return Job{Kind: KindCenterG, CenterG: cfg}, nil
	}
	return Job{}, fmt.Errorf("jobwire: unknown job kind %d", b[1])
}

// SiteData is the state a persistent site holds across jobs: its point
// shard (for point jobs), its uncertain node shard plus the shared ground
// set (for uncertain jobs), and an optional long-lived distance cache over
// the point shard. Any subset may be nil; a job frame of a kind the site
// has no data for fails that job loudly instead of computing on garbage.
type SiteData struct {
	Site  int
	Pts   []metric.Point
	Cache *metric.DistCache
	G     *uncertain.Ground
	Nodes []uncertain.Node
}

// ServeJobs runs the whole site loop over an established connection: it
// verifies the coordinator's job-frame hello marker (a site must never be
// silently paired with something that speaks another protocol), builds one
// long-lived distance cache over the point shard when none was provided
// and the shard fits the memoization cap, and serves one handler per job
// frame via Factory until the coordinator closes. wrap, when non-nil,
// decorates each job's handler (dpc-site -v hangs its logging off it). It
// is the single implementation behind dpc-site and client.ServeSite.
func ServeJobs(sc *transport.Site, d SiteData, wrap func(job int, blob []byte, h transport.Handler) transport.Handler) error {
	if string(sc.Hello()) != transport.JobsHello {
		return fmt.Errorf("jobwire: coordinator does not speak job frames (welcome %q, want %q)",
			sc.Hello(), transport.JobsHello)
	}
	if d.Cache == nil && len(d.Pts) > 0 && len(d.Pts) <= metric.MaxCachePoints {
		d.Cache = metric.NewDistCache(metric.NewPoints(d.Pts))
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

// Factory returns the transport.Site.ServeJobs factory for a persistent
// site holding d: each job frame is decoded and turned into the matching
// protocol's site handler, closing over the site-held data so datasets and
// caches stay warm across jobs. It is the single implementation behind
// dpc-site, the client.Cluster tests and the dpc-server remote e2e tests.
func Factory(d SiteData) func(job int, blob []byte) (transport.Handler, error) {
	// The site's pivot index is as long-lived as its distance cache: built
	// lazily by the first indexed job, reused (same pivot count) by every
	// later one. Jobs on one connection are served sequentially, so the
	// memo needs no locking.
	var siteIx *metric.Index
	ixPivots := -1
	return func(job int, blob []byte) (transport.Handler, error) {
		j, err := Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", job, err)
		}
		switch j.Kind {
		case KindPoint:
			if len(d.Pts) == 0 {
				return nil, fmt.Errorf("job %d: site %d holds no point shard", job, d.Site)
			}
			var oracle metric.Oracle
			if d.Cache != nil {
				oracle = d.Cache
			}
			if j.Core.Index && !j.Core.NoCache {
				m := j.Core.Pivots
				if m <= 0 {
					m = metric.DefaultPivots
				}
				if m > len(d.Pts) {
					m = len(d.Pts)
				}
				if siteIx == nil || ixPivots != m {
					var sp metric.Space
					if d.Cache != nil {
						sp = d.Cache
					} else {
						sp = metric.NewPoints(d.Pts)
					}
					siteIx = metric.NewIndex(sp, metric.IndexOptions{Pivots: m})
					ixPivots = m
				}
				oracle = siteIx
			}
			return core.NewSiteHandlerOracle(j.Core, d.Site, d.Pts, oracle)
		case KindUncertain:
			if len(d.Nodes) == 0 || d.G == nil {
				return nil, fmt.Errorf("job %d: site %d holds no uncertain shard", job, d.Site)
			}
			return uncertain.NewSiteHandler(d.G, d.Nodes, j.Unc, j.Obj, d.Site)
		case KindCenterG:
			if len(d.Nodes) == 0 || d.G == nil {
				return nil, fmt.Errorf("job %d: site %d holds no uncertain shard", job, d.Site)
			}
			return uncertain.NewCenterGSiteHandler(d.G, d.Nodes, j.CenterG, d.Site)
		}
		return nil, fmt.Errorf("job %d: unhandled kind %v", job, j.Kind)
	}
}
