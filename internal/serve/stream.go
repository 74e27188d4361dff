package serve

import (
	"context"
	"fmt"

	"dpc/internal/jobwire"
	"dpc/internal/kmedian"
	"dpc/internal/metric"
	"dpc/internal/stream"
)

// streamData is a stream dataset's state: an internal/stream sketch for a
// registration-time (k, t, objective), fed by appends.
type streamData struct {
	sketch *stream.Sketch
	// dim is pinned by the first append: the sketch assumes one dimension,
	// so mismatches are rejected at the append, where they fail cleanly.
	dim int
}

// newStream builds the sketch a stream record describes. A registration
// record holds only its shape (K, T, Chunk, Means, Seed); a snapshot
// record also holds the sketch's exact internal state, restored so the
// sketch answers every future Add/Query bit-identically to the one that
// checkpointed, without re-ingesting (and re-compressing) the stream.
func newStream(wd walDataset) (*streamData, error) {
	sk, err := stream.New(stream.Config{K: wd.K, T: wd.T, Chunk: wd.Chunk, Means: wd.Means,
		Opts: kmedian.Options{Seed: wd.Seed}})
	if err != nil {
		return nil, fmt.Errorf("serve: dataset %q: %w", wd.Name, err)
	}
	if wd.Ingested > 0 || len(wd.Summary) > 0 {
		err = sk.LoadState(stream.State{
			Points: rowsToPoints(wd.Summary), Weights: wd.Weights, Dim: wd.Dim,
			Compressions: wd.Compressions, N: wd.Ingested,
		})
	}
	return &streamData{sketch: sk, dim: wd.Dim}, err
}

func (st *streamData) info(info *DatasetInfo) {
	info.Ingested = st.sketch.N()
	info.SummarySize = st.sketch.Size()
	info.Compressions = st.sketch.Compressions()
	info.Points = st.sketch.N()
	info.Dim = st.dim
}

func (st *streamData) check(name string, pts []metric.Point) error {
	dim := st.dim
	if dim == 0 {
		dim = pts[0].Dim() // the first append pins it
	}
	if err := validatePoints(pts, dim); err != nil {
		return fmt.Errorf("serve: append to %q: %w", name, err)
	}
	return nil
}

// apply feeds the points to the sketch; the dataset keeps its version.
func (st *streamData) apply(pts []metric.Point) bool {
	if st.dim == 0 {
		st.dim = pts[0].Dim()
	}
	for _, p := range pts {
		st.sketch.Add(p)
	}
	return false
}

// record is the sketch's shape plus its exact state (stream.State).
func (st *streamData) record() (walDataset, bool) {
	cfg := st.sketch.Config()
	state := st.sketch.State()
	return walDataset{
		K: cfg.K, T: cfg.T, Chunk: cfg.Chunk, Means: cfg.Means, Seed: cfg.Opts.Seed,
		Summary: pointsToRows(state.Points), Weights: state.Weights,
		Compressions: state.Compressions, Ingested: state.N, Dim: st.dim,
	}, true
}

// run answers a (k, t) query on the sketch's summary. The sketch's
// objective is fixed at registration (its compressions already folded the
// stream under that objective), so a query for the other one is an error,
// not a silent wrong answer; per-job engine knobs (Engine, Seed, Workers)
// are likewise registration-time properties of the sketch.
//
// Query only reads sketch state, so it takes the read lock: concurrent
// queries, Info() and /metrics proceed; only appends (the single writer)
// serialize against it. The query itself is one indivisible summary-sized
// solve, so cancellation is honored at its boundary (a canceled job never
// starts the solve) rather than inside it.
func (st *streamData) run(ctx context.Context, _ *Registry, d *Dataset, spec JobSpec, _ jobwire.Job) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	means := st.sketch.Config().Means
	switch spec.Objective {
	case "", "median":
		if means {
			return nil, fmt.Errorf("serve: dataset %q sketches the means objective; this job asks for median", d.name)
		}
	case "means":
		if !means {
			return nil, fmt.Errorf("serve: dataset %q sketches the median objective; register with \"means\":true to answer means queries", d.name)
		}
	default:
		return nil, fmt.Errorf("serve: stream datasets answer median/means queries, not %q", spec.Objective)
	}
	d.mu.RLock()
	sres := st.sketch.Query(spec.K, spec.T)
	d.mu.RUnlock()
	return &JobResult{
		Centers:       pointsToRows(sres.Centers),
		OutlierBudget: float64(spec.T),
		Cost:          sres.SummaryCost,
		CostKind:      "summary",
	}, nil
}
