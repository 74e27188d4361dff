package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpc/internal/serve"
)

// fakeServer scripts the /v1 wire surface so the client's failure paths
// run against controlled replies instead of a live solver.
type fakeServer struct {
	submits atomic.Int64
	polls   atomic.Int64
	cancels atomic.Int64

	// onSubmit/onPoll decide the reply for the nth call (1-based).
	onSubmit func(n int64, w http.ResponseWriter)
	onPoll   func(n int64, w http.ResponseWriter)
}

func (f *fakeServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.onSubmit(f.submits.Add(1), w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.onPoll(f.polls.Add(1), w)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		f.cancels.Add(1)
		writeBody(w, http.StatusOK, `{"id":"job-1","status":"canceled"}`)
	})
	return mux
}

func writeBody(w http.ResponseWriter, status int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprint(w, body)
}

func writeCode(w http.ResponseWriter, status int, code string) {
	raw, _ := json.Marshal(serve.APIErrorBody{Code: code, Error: "scripted " + code})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw)
}

const acceptedJob = `{"id":"job-1","status":"queued"}`
const doneJob = `{"id":"job-1","status":"done","result":{"centers":[[1,2],[3,4]],"outlier_budget":4,"cost":9.5,"cost_kind":"global"}}`
const runningJob = `{"id":"job-1","status":"running"}`

// fastRemote builds a Remote with millisecond retry/poll pacing.
func fastRemote(url string) *Remote {
	return NewRemote(url, RemoteOptions{
		RetryMax:     4,
		RetryBackoff: time.Millisecond,
		PollInterval: time.Millisecond,
	})
}

// namedReq targets a (scripted) named dataset so Do skips registration.
func namedReq() Request {
	return Request{Objective: Median, K: 2, T: 4, Seed: 1, Dataset: "d"}
}

// TestRemoteFailurePaths is the table-driven httptest matrix of the
// client's wire-level behavior: 503 retry-with-backoff, retry exhaustion,
// no retry on shutting_down or a 429 quota rejection, server restart
// between submit and poll (job vanishes), job failure, and malformed JSON
// replies.
func TestRemoteFailurePaths(t *testing.T) {
	cases := []struct {
		name     string
		onSubmit func(n int64, w http.ResponseWriter)
		onPoll   func(n int64, w http.ResponseWriter)
		check    func(t *testing.T, f *fakeServer, res *Response, err error)
	}{
		{
			name: "503 queue_full retries with backoff until accepted",
			onSubmit: func(n int64, w http.ResponseWriter) {
				if n <= 2 {
					writeCode(w, http.StatusServiceUnavailable, serve.CodeQueueFull)
					return
				}
				writeBody(w, http.StatusAccepted, acceptedJob)
			},
			onPoll: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, doneJob) },
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
				if got := f.submits.Load(); got != 3 {
					t.Fatalf("submitted %d times, want 3 (2 rejections + 1 accept)", got)
				}
				if len(res.Centers) != 2 || res.Cost != 9.5 {
					t.Fatalf("result: %+v", res)
				}
			},
		},
		{
			name: "503 queue_full exhausts retries",
			onSubmit: func(n int64, w http.ResponseWriter) {
				writeCode(w, http.StatusServiceUnavailable, serve.CodeQueueFull)
			},
			onPoll: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, doneJob) },
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeQueueFull {
					t.Fatalf("Do: %v, want queue_full APIError", err)
				}
				if got := f.submits.Load(); got != 5 {
					t.Fatalf("submitted %d times, want RetryMax+1 = 5", got)
				}
			},
		},
		{
			name: "shutting_down is not retried",
			onSubmit: func(n int64, w http.ResponseWriter) {
				writeCode(w, http.StatusServiceUnavailable, serve.CodeShuttingDown)
			},
			onPoll: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, doneJob) },
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeShuttingDown {
					t.Fatalf("Do: %v, want shutting_down APIError", err)
				}
				if got := f.submits.Load(); got != 1 {
					t.Fatalf("submitted %d times, want no retries", got)
				}
			},
		},
		{
			name: "429 quota_exceeded is not retried",
			onSubmit: func(n int64, w http.ResponseWriter) {
				writeCode(w, http.StatusTooManyRequests, serve.CodeQuotaExceeded)
			},
			onPoll: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, doneJob) },
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeQuotaExceeded {
					t.Fatalf("Do: %v, want quota_exceeded APIError", err)
				}
				if got := f.submits.Load(); got != 1 {
					t.Fatalf("submitted %d times, want no retries", got)
				}
			},
		},
		{
			name:     "server restart between submit and poll",
			onSubmit: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusAccepted, acceptedJob) },
			onPoll: func(n int64, w http.ResponseWriter) {
				// The restarted server has no memory of the job.
				writeCode(w, http.StatusNotFound, serve.CodeJobNotFound)
			},
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Code != serve.CodeJobNotFound {
					t.Fatalf("Do: %v, want job_not_found APIError", err)
				}
			},
		},
		{
			name:     "job fails server-side",
			onSubmit: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusAccepted, acceptedJob) },
			onPoll: func(n int64, w http.ResponseWriter) {
				writeBody(w, http.StatusOK, `{"id":"job-1","status":"failed","error":"solver exploded"}`)
			},
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				var jf *JobFailedError
				if !errors.As(err, &jf) || !strings.Contains(jf.Message, "solver exploded") {
					t.Fatalf("Do: %v, want JobFailedError with the server's reason", err)
				}
			},
		},
		{
			name:     "malformed JSON success body",
			onSubmit: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusAccepted, `{"id": "job-1"`) },
			onPoll:   func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, doneJob) },
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				if err == nil || !strings.Contains(err.Error(), "malformed JSON") {
					t.Fatalf("Do: %v, want malformed JSON error", err)
				}
			},
		},
		{
			name:     "malformed error body",
			onSubmit: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusTeapot, `<html>oops</html>`) },
			onPoll:   func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, doneJob) },
			check: func(t *testing.T, f *fakeServer, res *Response, err error) {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Code != "malformed_error" || apiErr.Status != http.StatusTeapot {
					t.Fatalf("Do: %v, want malformed_error APIError with status 418", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeServer{onSubmit: tc.onSubmit, onPoll: tc.onPoll}
			hs := httptest.NewServer(f.handler())
			defer hs.Close()
			res, err := fastRemote(hs.URL).Do(context.Background(), namedReq())
			tc.check(t, f, res, err)
		})
	}
}

// TestRemoteCancelMidPoll proves a context cancelled while the client
// polls returns context.Canceled promptly and best-effort cancels the
// server-side job.
func TestRemoteCancelMidPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &fakeServer{
		onSubmit: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusAccepted, acceptedJob) },
		onPoll: func(n int64, w http.ResponseWriter) {
			// Cancel from inside the poll: the client is then provably
			// mid-poll, with a submitted job to clean up.
			if n == 2 {
				cancel()
			}
			writeBody(w, http.StatusOK, runningJob)
		},
	}
	hs := httptest.NewServer(f.handler())
	defer hs.Close()

	start := time.Now()
	_, err := fastRemote(hs.URL).Do(ctx, namedReq())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if f.cancels.Load() == 0 {
		t.Fatalf("client never sent the best-effort server-side cancel")
	}
}

// TestRemoteDeadlineMidPoll: a deadline works like a cancellation but
// surfaces context.DeadlineExceeded.
func TestRemoteDeadlineMidPoll(t *testing.T) {
	f := &fakeServer{
		onSubmit: func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusAccepted, acceptedJob) },
		onPoll:   func(n int64, w http.ResponseWriter) { writeBody(w, http.StatusOK, runningJob) },
	}
	hs := httptest.NewServer(f.handler())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := fastRemote(hs.URL).Do(ctx, namedReq()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do: %v, want context.DeadlineExceeded", err)
	}
}
