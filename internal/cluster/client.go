package cluster

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/httpapi"
	"repro/internal/keystream"
	"repro/internal/obs"
	"repro/internal/service"
)

// WorkerClient is the coordinator's (and a gate's) handle on one worker:
// its /ctl control RPC, and its /v1 session data plane through a
// client.HTTP. Every call goes through httpapi.Do: transport-level
// failures surface as ErrUnreachable, and rejections decode back to the
// typed errors the worker raised (ErrDraining, ErrDuplicate,
// service.ErrSaturated, keypool.ErrExhausted/ErrClosed, ErrNotFound, ...).
type WorkerClient struct {
	base string
	hc   *http.Client
	data *client.HTTP      // the worker's /v1/sessions/{id} routes
	rpc  *obs.HistogramVec // per-op call latency; nil when uninstrumented
}

// NewWorkerClient returns a client for the worker at base (e.g.
// "http://127.0.0.1:41234"). Calls are bounded by their context; the
// embedded client adds a generous fallback timeout so a wedged worker
// cannot hang the coordinator.
func NewWorkerClient(base string) *WorkerClient {
	hc := &http.Client{Timeout: 60 * time.Second}
	return &WorkerClient{base: base, hc: hc, data: client.NewHTTPWith(base, hc)}
}

// WithObs attaches a registry: every call observes its latency into
// thinaird_cluster_rpc_seconds{op=...}. Returns the client for chaining.
func (c *WorkerClient) WithObs(r *obs.Registry) *WorkerClient {
	if r != nil {
		c.rpc = r.HistogramVec("thinaird_cluster_rpc_seconds",
			"Latency of every call to a worker, by operation: the coordinator's /ctl RPCs and routed reads, and a gate's reads.",
			obs.LatencyBuckets, "op")
	}
	return c
}

// observe records one call's latency since t0 when instrumented. The
// span header httpapi.Do sets on every request is what chains a
// coordinator-minted span into the worker's ring.
func (c *WorkerClient) observe(op string, t0 time.Time) {
	if c.rpc != nil {
		c.rpc.With(op).ObserveSince(t0)
	}
}

// URL returns the worker's control base URL.
func (c *WorkerClient) URL() string { return c.base }

// CloseIdle drops idle keep-alive connections (their background read
// goroutines otherwise linger past worker teardown).
func (c *WorkerClient) CloseIdle() { c.hc.CloseIdleConnections() }

// call performs one JSON call against the worker, timed under op.
func (c *WorkerClient) call(ctx context.Context, op, method, path string, body, out any) error {
	defer c.observe(op, time.Now())
	return httpapi.DoJSON(ctx, c.hc, method, c.base+path, body, out)
}

// Health probes /ctl/healthz — the heartbeat.
func (c *WorkerClient) Health(ctx context.Context) error {
	return c.call(ctx, "health", http.MethodGet, "/ctl/healthz", nil, nil)
}

// Stats fetches the worker snapshot.
func (c *WorkerClient) Stats(ctx context.Context) (WorkerStats, error) {
	var st WorkerStats
	err := c.call(ctx, "stats", http.MethodGet, "/ctl/stats", nil, &st)
	return st, err
}

// ObsSnapshot scrapes the worker's metrics registry — the coordinator's
// fleet-merge input.
func (c *WorkerClient) ObsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	var s obs.Snapshot
	err := c.call(ctx, "scrape", http.MethodGet, "/ctl/metrics", nil, &s)
	return s, err
}

// Trace fetches span events from the worker's ring; span narrows the
// result to one span id, "" returns the most recent events.
func (c *WorkerClient) Trace(ctx context.Context, span string) ([]obs.SpanEvent, error) {
	path := "/ctl/trace"
	if span != "" {
		path += "?span=" + url.QueryEscape(span)
	}
	var evs []obs.SpanEvent
	err := c.call(ctx, "trace", http.MethodGet, path, nil, &evs)
	return evs, err
}

// Assign places a cluster session on the worker, to derive this build's
// stream format; a worker that derives another refuses it.
func (c *WorkerClient) Assign(ctx context.Context, cid uint64, spec service.SessionSpec) (service.SessionMetrics, error) {
	var m service.SessionMetrics
	req := assignRequest{ID: cid, Spec: spec, Format: keystream.Format}
	err := c.call(ctx, "assign", http.MethodPost, "/ctl/assign", req, &m)
	return m, err
}

// Close gracefully stops one cluster session on the worker.
func (c *WorkerClient) Close(ctx context.Context, cid uint64) error {
	return c.call(ctx, "close", http.MethodDelete, "/v1/sessions/"+strconv.FormatUint(cid, 10), nil, nil)
}

// Metrics snapshots one cluster session on the worker.
func (c *WorkerClient) Metrics(ctx context.Context, cid uint64) (service.SessionMetrics, error) {
	var m service.SessionMetrics
	err := c.call(ctx, "metrics", http.MethodGet, "/v1/sessions/"+strconv.FormatUint(cid, 10), nil, &m)
	return m, err
}

// Draw dispenses n bytes of key material from a cluster session.
func (c *WorkerClient) Draw(ctx context.Context, cid uint64, n int) ([]byte, error) {
	defer c.observe("draw", time.Now())
	return c.data.Draw(ctx, cid, n)
}

// StreamRangeTo streams key-material bytes [off, off+n) from a cluster
// session into w as the worker produces them (the coordinator's routed
// /stream body and a gate's frames pass through here without being
// buffered). It returns the bytes written: 0 with a typed error when
// the worker rejected the request, possibly short with an error on a
// mid-body failure.
func (c *WorkerClient) StreamRangeTo(ctx context.Context, cid uint64, off, n int64, w io.Writer) (int64, error) {
	defer c.observe("stream", time.Now())
	return c.data.StreamRangeTo(ctx, cid, off, n, w)
}

// StreamRange reads key-material bytes [off, off+n) from a cluster
// session, materialized.
func (c *WorkerClient) StreamRange(ctx context.Context, cid uint64, off, n int64) ([]byte, error) {
	defer c.observe("stream", time.Now())
	return c.data.StreamRange(ctx, cid, off, n)
}

// Drain asks the worker to drain every session and zeroize every pool.
func (c *WorkerClient) Drain(ctx context.Context) error {
	return c.call(ctx, "drain", http.MethodPost, "/ctl/drain", nil, nil)
}
