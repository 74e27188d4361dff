package serve

import (
	"context"
	"fmt"
	"math"

	"dpc/internal/jobwire"
	"dpc/internal/metric"
	"dpc/internal/transport"
	"dpc/internal/uncertain"
)

// uncertainData is an uncertain dataset's state: the shared ground set
// and the registered nodes. Both are immutable after registration
// (uncertain datasets do not support append — the collapse caches at the
// sites key on node identity), so jobs read them without the dataset
// lock.
type uncertainData struct {
	ground *uncertain.Ground
	nodes  []uncertain.Node
}

// NodeWire is one uncertain node on the JSON API: probabilities paired
// with either inline support Points (coordinates; the ground set becomes
// their concatenation) or Support indices into the request's shared
// Ground. Probabilities are normalized server-side like the CSV reader's,
// except that already-normalized distributions pass through bit-identical.
// A journal record holds every node in the Support form.
type NodeWire struct {
	Points  [][]float64 `json:"points,omitempty"`
	Support []int       `json:"support,omitempty"`
	Probs   []float64   `json:"probs"`
}

// buildUncertain turns a request's ground set and wire nodes into their
// journal form: ground rows, and nodes as Support indices into them with
// normalized probabilities. An explicit ground is preserved exactly and
// nodes must index it; without one, each node's inline Points are
// appended in order (the CSV reader's semantics).
func buildUncertain(ground [][]float64, wire []NodeWire) ([][]float64, []NodeWire, error) {
	explicit := len(ground) > 0
	nodes := make([]NodeWire, 0, len(wire))
	for j, wn := range wire {
		var nd NodeWire
		switch {
		case explicit:
			if len(wn.Points) > 0 {
				return nil, nil, fmt.Errorf("serve: node %d carries inline points, but the request has an explicit ground set (use support indices)", j)
			}
			if len(wn.Support) == 0 || len(wn.Support) != len(wn.Probs) {
				return nil, nil, fmt.Errorf("serve: node %d has %d support indices and %d probabilities", j, len(wn.Support), len(wn.Probs))
			}
			nd.Support = append([]int(nil), wn.Support...)
		default:
			if len(wn.Support) > 0 {
				return nil, nil, fmt.Errorf("serve: node %d uses support indices, but the request has no ground set", j)
			}
			if len(wn.Points) == 0 || len(wn.Points) != len(wn.Probs) {
				return nil, nil, fmt.Errorf("serve: node %d has %d support points and %d probabilities", j, len(wn.Points), len(wn.Probs))
			}
			for _, row := range wn.Points {
				nd.Support = append(nd.Support, len(ground))
				ground = append(ground, row)
			}
		}
		nd.Probs = append([]float64(nil), wn.Probs...)
		var tot float64
		for _, p := range nd.Probs {
			if !(p > 0) || math.IsInf(p, 1) {
				return nil, nil, fmt.Errorf("serve: node %d: probability %g out of range", j, p)
			}
			tot += p
		}
		// Normalize like the CSV reader — but only when actually needed:
		// probabilities that already sum to 1 pass through bit-identical,
		// so a client uploading normalized nodes gets byte-identical
		// results to solving them locally.
		if math.Abs(tot-1) > 1e-9 {
			for i := range nd.Probs {
				nd.Probs[i] /= tot
			}
		}
		nodes = append(nodes, nd)
	}
	return ground, nodes, nil
}

// uncertainRecord is an uncertain instance's journal form: the ground set
// as rows and every node as support indices plus its (already
// normalized) probabilities, so newUncertain rebuilds the instance bit
// for bit.
func uncertainRecord(name string, g *uncertain.Ground, nodes []uncertain.Node) walDataset {
	wn := make([]NodeWire, len(nodes))
	for i, nd := range nodes {
		wn[i] = NodeWire{Support: nd.Support, Probs: nd.Prob}
	}
	return walDataset{Name: name, Kind: KindUncertain, Ground: pointsToRows(g.Pts), Nodes: wn}
}

// newUncertain builds and validates the instance an uncertain record
// describes.
func newUncertain(wd walDataset) (*uncertainData, error) {
	g := &uncertain.Ground{Pts: rowsToPoints(wd.Ground)}
	if g.N() == 0 {
		return nil, fmt.Errorf("serve: uncertain dataset %q has an empty ground set", wd.Name)
	}
	if len(wd.Nodes) == 0 {
		return nil, fmt.Errorf("serve: uncertain dataset %q has no nodes", wd.Name)
	}
	dim := g.Pts[0].Dim()
	if err := validatePoints(g.Pts, dim); err != nil {
		return nil, fmt.Errorf("serve: uncertain dataset %q: %w", wd.Name, err)
	}
	nodes := make([]uncertain.Node, len(wd.Nodes))
	for j, wn := range wd.Nodes {
		nodes[j] = uncertain.Node{Support: wn.Support, Prob: wn.Probs}
		if err := nodes[j].Validate(g); err != nil {
			return nil, fmt.Errorf("serve: uncertain dataset %q: node %d: %w", wd.Name, j, err)
		}
	}
	return &uncertainData{ground: g, nodes: nodes}, nil
}

// info leaves Points zero: nodes are not points, and the ground-set size
// is reported unambiguously as GroundPoints.
func (u *uncertainData) info(info *DatasetInfo) {
	info.Nodes = len(u.nodes)
	info.GroundPoints = u.ground.N()
	info.Dim = u.ground.Pts[0].Dim()
}

func (u *uncertainData) check(name string, _ []metric.Point) error {
	return fmt.Errorf("serve: dataset %q is uncertain; nodes are fixed at registration (register a new dataset to change them)", name)
}

func (u *uncertainData) apply([]metric.Point) {}

func (u *uncertainData) record() (walDataset, bool) {
	return uncertainRecord("", u.ground, u.nodes), true
}

// run executes the Section 5 protocols over loopback shards of the nodes:
// Algorithm 3 for u-median/u-means/u-centerpp, Algorithm 4 for u-centerg.
// The cost reported is the true global objective over all registered nodes
// (the server holds the ground set, so unlike remote datasets there is no
// reason to settle for the coordinator's induced cost); u-centerg costs
// are seeded Monte Carlo estimates.
func (u *uncertainData) run(ctx context.Context, _ *Registry, _ *Dataset, spec JobSpec, job jobwire.Job) (*JobResult, error) {
	sites := spec.Sites
	if sites <= 0 {
		sites = DefaultJobSites
	}
	data := jobwire.Data{G: u.ground, Nodes: u.nodes}
	res, err := job.RunLocal(ctx, data.Split(sites))
	if err != nil {
		return nil, err
	}
	return jobResult(job, data, res, transport.KindLoopback), nil
}
