package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dpc/internal/jobwire"
	"dpc/internal/serve"
)

// APIError is a non-2xx reply from a dpc-server, carrying the API's stable
// machine-readable code (serve.Code*) alongside the HTTP status and the
// human-readable message. Callers switch on Code, never on Message.
type APIError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server replied %d (%s): %s", e.Status, e.Code, e.Message)
}

// JobFailedError reports a job that reached a terminal failure state on
// the server. Code carries the server's stable machine-readable error
// code (serve.Code*) when the failure has one — e.g.
// "queue_deadline_exceeded" for a job that aged out of the queue, or
// "shutting_down" for one drained by a server exit. Callers switch on
// Code, never on Message.
type JobFailedError struct {
	JobID   string
	Status  string
	Code    string
	Message string
}

// Error implements error.
func (e *JobFailedError) Error() string {
	return fmt.Sprintf("client: job %s %s: %s", e.JobID, e.Status, e.Message)
}

// RemoteOptions tunes the Remote backend. Zero values select the defaults.
type RemoteOptions struct {
	// HTTPClient overrides the http.Client (default: a fresh client with
	// no global timeout — per-call deadlines come from the context).
	HTTPClient *http.Client
	// RetryMax bounds submission retries on 503 queue_full backpressure
	// (default 8; 0 means the default, negative disables retries).
	RetryMax int
	// RetryBackoff is the initial backoff between retries, doubled per
	// attempt and capped at 2s (default 50ms).
	RetryBackoff time.Duration
	// PollInterval spaces job status polls (default 25ms).
	PollInterval time.Duration
}

// Remote answers requests against a running dpc-server over its /v1 HTTP
// API: submit, retry-with-backoff on 503 backpressure, poll to completion.
// Named datasets (req.Dataset) are used as-is so their server-side caches
// stay warm across requests; a request carrying in-memory data instead is
// served by registering an ephemeral dataset for the duration of the call.
type Remote struct {
	base string
	hc   *http.Client
	opt  RemoteOptions
}

// NewRemote creates a Remote backend for the server at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewRemote(baseURL string, opt RemoteOptions) *Remote {
	if opt.HTTPClient == nil {
		opt.HTTPClient = &http.Client{}
	}
	if opt.RetryMax == 0 {
		opt.RetryMax = 8
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 50 * time.Millisecond
	}
	if opt.PollInterval <= 0 {
		opt.PollInterval = 25 * time.Millisecond
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Remote{base: baseURL, hc: opt.HTTPClient, opt: opt}
}

// Close implements Client (connections are pooled by net/http).
func (r *Remote) Close() error {
	r.hc.CloseIdleConnections()
	return nil
}

// do performs one JSON round trip. Non-2xx replies decode into *APIError;
// a reply body that is not valid JSON is an error, not a silent zero.
func (r *Remote) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		// Surface the context's own error so callers can errors.Is it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return fmt.Errorf("client: %s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var envelope serve.APIErrorBody
		if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Code == "" {
			return &APIError{Status: resp.StatusCode, Code: "malformed_error",
				Message: fmt.Sprintf("undecodable error body: %.200s", raw)}
		}
		return &APIError{Status: resp.StatusCode, Code: envelope.Code, Message: envelope.Error}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: %s %s: malformed JSON reply: %w", method, path, err)
	}
	return nil
}

// sleep waits d or until ctx is done, returning ctx.Err() in that case.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RegisterDataset registers a named table dataset holding pts.
func (r *Remote) RegisterDataset(ctx context.Context, name string, pts []Point) error {
	body := struct {
		Name   string      `json:"name"`
		Points [][]float64 `json:"points"`
	}{Name: name, Points: pointRows(pts)}
	return r.do(ctx, "POST", "/v1/datasets", body, nil)
}

// RegisterDatasetWarm is RegisterDataset with the server's background
// cache warmup explicitly requested (warm=true) or suppressed
// (warm=false), overriding the server's -warm default either way. With
// warmup on, the server prefills the dataset's shard distance caches on
// spare scheduler capacity after registration, so the first job pays
// loads instead of the O(n^2/s) metric.
func (r *Remote) RegisterDatasetWarm(ctx context.Context, name string, pts []Point, warm bool) error {
	body := struct {
		Name   string      `json:"name"`
		Points [][]float64 `json:"points"`
	}{Name: name, Points: pointRows(pts)}
	return r.do(ctx, "POST", fmt.Sprintf("/v1/datasets?warm=%t", warm), body, nil)
}

// AppendPoints appends points to a table dataset (or feeds a stream
// sketch), returning the dataset's post-append summary.
func (r *Remote) AppendPoints(ctx context.Context, name string, pts []Point) (serve.DatasetInfo, error) {
	body := struct {
		Points [][]float64 `json:"points"`
	}{Points: pointRows(pts)}
	var info serve.DatasetInfo
	err := r.do(ctx, "POST", "/v1/datasets/"+name+"/points", body, &info)
	return info, err
}

// RegisterUncertainDataset registers a named uncertain dataset. The
// ground set ships explicitly and nodes reference it by support index, so
// the server reconstructs the exact instance — shared support points stay
// shared, unreferenced ground points survive — and remote solves stay
// byte-identical to local ones.
func (r *Remote) RegisterUncertainDataset(ctx context.Context, name string, g *Ground, nodes []Node) error {
	wire := make([]serve.NodeWire, len(nodes))
	for j, nd := range nodes {
		wire[j] = serve.NodeWire{
			Support: append([]int(nil), nd.Support...),
			Probs:   append([]float64(nil), nd.Prob...),
		}
	}
	body := struct {
		Name   string            `json:"name"`
		Kind   serve.DatasetKind `json:"kind"`
		Ground [][]float64       `json:"ground"`
		Nodes  []serve.NodeWire  `json:"nodes"`
	}{Name: name, Kind: serve.KindUncertain, Ground: pointRows(g.Pts), Nodes: wire}
	return r.do(ctx, "POST", "/v1/datasets", body, nil)
}

// DeleteDataset removes a named dataset.
func (r *Remote) DeleteDataset(ctx context.Context, name string) error {
	return r.do(ctx, "DELETE", "/v1/datasets/"+name, nil, nil)
}

// Dataset fetches a dataset's summary (cache stats, sizes).
func (r *Remote) Dataset(ctx context.Context, name string) (serve.DatasetInfo, error) {
	var info serve.DatasetInfo
	err := r.do(ctx, "GET", "/v1/datasets/"+name, nil, &info)
	return info, err
}

// Submit submits a job spec, retrying with exponential backoff while the
// server applies 503 queue_full backpressure. It returns the queued job.
func (r *Remote) Submit(ctx context.Context, spec serve.JobSpec) (serve.Job, error) {
	backoff := r.opt.RetryBackoff
	for attempt := 0; ; attempt++ {
		var job serve.Job
		err := r.do(ctx, "POST", "/v1/jobs", spec, &job)
		if err == nil {
			return job, nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeQueueFull || attempt >= r.opt.RetryMax {
			return serve.Job{}, err
		}
		if err := sleep(ctx, backoff); err != nil {
			return serve.Job{}, err
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// Job fetches one job's state.
func (r *Remote) Job(ctx context.Context, id string) (serve.Job, error) {
	var job serve.Job
	err := r.do(ctx, "GET", "/v1/jobs/"+id, nil, &job)
	return job, err
}

// CancelJob cancels a queued or running job.
func (r *Remote) CancelJob(ctx context.Context, id string) (serve.Job, error) {
	var job serve.Job
	err := r.do(ctx, "POST", "/v1/jobs/"+id+"/cancel", nil, &job)
	return job, err
}

// Wait polls a job until it reaches a terminal state, spacing polls by the
// configured interval. A cancelled ctx returns ctx.Err() promptly after a
// best-effort server-side cancel of the job.
func (r *Remote) Wait(ctx context.Context, id string) (serve.Job, error) {
	for {
		job, err := r.Job(ctx, id)
		if err != nil {
			r.cancelOnCtx(ctx, id, err)
			return serve.Job{}, err
		}
		switch job.Status {
		case serve.StatusDone:
			return job, nil
		case serve.StatusFailed, serve.StatusCanceled:
			return serve.Job{}, &JobFailedError{JobID: id, Status: job.Status, Code: job.ErrorCode, Message: job.Error}
		}
		if err := sleep(ctx, r.opt.PollInterval); err != nil {
			r.cancelOnCtx(ctx, id, err)
			return serve.Job{}, err
		}
	}
}

// cancelOnCtx best-effort cancels the server-side job when the client's
// context died mid-wait, so an abandoned poll does not leave the server
// solving for nobody.
func (r *Remote) cancelOnCtx(ctx context.Context, id string, err error) {
	if ctx.Err() == nil {
		return
	}
	//dpc:vet-ok ctxflow the caller's ctx is already dead here; the cancel RPC needs its own bounded lifetime
	bg, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r.CancelJob(bg, id)
}

// Do implements Client.
func (r *Remote) Do(ctx context.Context, req Request) (*Response, error) {
	if req.Central {
		return nil, fmt.Errorf("client: Central (the Section 3.1 solver) runs on the Local backend only")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	spec := req.spec()
	kind, err := req.kind()
	if err != nil {
		return nil, err
	}
	if spec.Dataset == "" {
		name, cleanup, err := r.registerEphemeral(ctx, req, kind)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		spec.Dataset = name
	}
	job, err := r.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	done, err := r.Wait(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	res := done.Result
	if res == nil {
		return nil, fmt.Errorf("client: job %s is done but has no result", job.ID)
	}
	centers := make([]Point, len(res.Centers))
	for i, row := range res.Centers {
		centers[i] = Point(row)
	}
	return &Response{
		Centers:       centers,
		Cost:          res.Cost,
		CostKind:      res.CostKind,
		OutlierBudget: res.OutlierBudget,
		SiteBudgets:   res.SiteBudgets,
		Rounds:        res.Rounds,
		UpBytes:       res.UpBytes,
		DownBytes:     res.DownBytes,
		Tau:           res.Tau,
		Backend:       "remote",
		JobID:         done.ID,
	}, nil
}

// registerEphemeral uploads the request's in-memory data as a
// throwaway-named dataset; the returned cleanup deletes it best-effort.
func (r *Remote) registerEphemeral(ctx context.Context, req Request, kind jobwire.Kind) (string, func(), error) {
	name := ephemeralName()
	var err error
	if kind == jobwire.KindPoint {
		if len(req.Points) == 0 {
			return "", nil, fmt.Errorf("client: remote %s request needs Dataset or Points", req.Objective)
		}
		err = r.RegisterDataset(ctx, name, req.Points)
	} else {
		if req.Ground == nil || len(req.Nodes) == 0 {
			return "", nil, fmt.Errorf("client: remote %s request needs Dataset or Ground+Nodes", req.Objective)
		}
		err = r.RegisterUncertainDataset(ctx, name, req.Ground, req.Nodes)
	}
	if err != nil {
		return "", nil, err
	}
	cleanup := func() {
		//dpc:vet-ok ctxflow cleanup must delete the ephemeral dataset even after the request ctx is cancelled
		bg, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		r.DeleteDataset(bg, name)
	}
	return name, cleanup, nil
}

// ephemeralName generates a throwaway dataset name.
func ephemeralName() string {
	var suffix [6]byte
	rand.Read(suffix[:])
	return "client-" + hex.EncodeToString(suffix[:])
}

// pointRows converts points to JSON rows.
func pointRows(pts []Point) [][]float64 {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = p
	}
	return rows
}
