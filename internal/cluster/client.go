package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/keypool"
	"repro/internal/obs"
	"repro/internal/service"
)

// WorkerClient is the coordinator's handle on one worker's control RPC.
// Transport-level failures surface as ErrUnreachable; RPC rejections map
// back to the typed errors the worker raised (ErrDraining, ErrDuplicate,
// service.ErrSaturated, keypool.ErrExhausted/ErrClosed, ErrNotFound).
type WorkerClient struct {
	base string
	hc   *http.Client
	rpc  *obs.HistogramVec // per-op RPC latency; nil when uninstrumented
}

// NewWorkerClient returns a client for the worker at base (e.g.
// "http://127.0.0.1:41234"). Calls are bounded by their context; the
// embedded client adds a generous fallback timeout so a wedged worker
// cannot hang the coordinator.
func NewWorkerClient(base string) *WorkerClient {
	return &WorkerClient{base: base, hc: &http.Client{Timeout: 60 * time.Second}}
}

// WithObs attaches a registry: every RPC observes its latency into
// thinaird_cluster_rpc_seconds{op=...}. Returns the client for chaining.
func (c *WorkerClient) WithObs(r *obs.Registry) *WorkerClient {
	if r != nil {
		c.rpc = r.HistogramVec("thinaird_cluster_rpc_seconds",
			"Coordinator-to-worker control RPC latency, by operation.",
			obs.LatencyBuckets, "op")
	}
	return c
}

// observeRPC records one RPC's latency when instrumented. The span
// header on outgoing requests (see do/doStream) is what chains a
// coordinator-minted span into the worker's ring.
func (c *WorkerClient) observeRPC(op string, t0 time.Time) {
	if c.rpc != nil {
		c.rpc.With(op).ObserveSince(t0)
	}
}

func (c *WorkerClient) rpcStart() time.Time {
	if c.rpc == nil {
		return time.Time{}
	}
	return time.Now()
}

// URL returns the worker's control base URL.
func (c *WorkerClient) URL() string { return c.base }

// CloseIdle drops idle keep-alive connections (their background read
// goroutines otherwise linger past worker teardown).
func (c *WorkerClient) CloseIdle() { c.hc.CloseIdleConnections() }

// do performs one RPC and decodes the JSON response into out (when
// non-nil). Non-2xx statuses are mapped to typed errors via the body's
// error code.
func (c *WorkerClient) do(ctx context.Context, op, method, path string, body, out any) error {
	t0 := c.rpcStart()
	defer c.observeRPC(op, t0)
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span := obs.SpanID(ctx); span != "" {
		req.Header.Set(obs.SpanHeader, span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// The caller giving up is not the worker being gone: ErrUnreachable
		// drives supervision and registry decisions, so a cancelled or
		// expired context must surface as itself.
		if ctx.Err() != nil {
			return fmt.Errorf("cluster: worker rpc: %w", ctx.Err())
		}
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	// Read the body to EOF so the keep-alive connection is reusable —
	// heartbeats run every few hundred ms against every worker.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return rpcError(resp.StatusCode, eb)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// doStream performs one RPC whose success body is raw bytes rather than
// JSON (the stream endpoint), copying the n-byte body into w without
// materializing it. Error responses still carry the JSON envelope and
// map to the same typed errors as do; nothing is written to w on them.
// A body shorter than n (the worker aborted mid-range) surfaces as an
// error, never as a silent short read.
func (c *WorkerClient) doStream(ctx context.Context, path string, n int64, w io.Writer) (int64, error) {
	t0 := c.rpcStart()
	defer c.observeRPC("stream", t0)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	if span := obs.SpanID(ctx); span != "" {
		req.Header.Set(obs.SpanHeader, span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, fmt.Errorf("cluster: worker rpc: %w", ctx.Err())
		}
		return 0, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return 0, rpcError(resp.StatusCode, eb)
	}
	written, err := io.Copy(w, io.LimitReader(resp.Body, n))
	if err != nil {
		if ctx.Err() != nil {
			return written, fmt.Errorf("cluster: worker rpc: %w", ctx.Err())
		}
		return written, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	if written < n {
		return written, fmt.Errorf("%w: stream truncated at %d/%d bytes", ErrUnreachable, written, n)
	}
	return written, nil
}

// rpcError maps a worker error response back to the typed error the
// worker raised.
func rpcError(status int, eb errorBody) error {
	msg := eb.Error.Message
	if msg == "" {
		msg = http.StatusText(status)
	}
	switch eb.Error.Code {
	case codeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	case codeDuplicate:
		return fmt.Errorf("%w: %s", ErrDuplicate, msg)
	case codeSaturated:
		return fmt.Errorf("%w: %s", service.ErrSaturated, msg)
	case codeExhausted:
		return fmt.Errorf("%w: %s", keypool.ErrExhausted, msg)
	case codeClosed:
		return fmt.Errorf("%w: %s", keypool.ErrClosed, msg)
	case codeFailed:
		return fmt.Errorf("%w: %s", service.ErrFailed, msg)
	case codeNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case codeOrphaned:
		return fmt.Errorf("%w: %s", ErrOrphaned, msg)
	case codeShutdown:
		return fmt.Errorf("%w: %s", ErrShutdown, msg)
	}
	return fmt.Errorf("cluster: worker rpc status %d: %s", status, msg)
}

// Health probes /ctl/healthz — the heartbeat.
func (c *WorkerClient) Health(ctx context.Context) error {
	return c.do(ctx, "health", http.MethodGet, "/ctl/healthz", nil, nil)
}

// Stats fetches the worker snapshot.
func (c *WorkerClient) Stats(ctx context.Context) (WorkerStats, error) {
	var st WorkerStats
	err := c.do(ctx, "stats", http.MethodGet, "/ctl/stats", nil, &st)
	return st, err
}

// ObsSnapshot scrapes the worker's metrics registry — the coordinator's
// fleet-merge input.
func (c *WorkerClient) ObsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	var s obs.Snapshot
	err := c.do(ctx, "scrape", http.MethodGet, "/ctl/metrics", nil, &s)
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
	err := c.do(ctx, "trace", http.MethodGet, path, nil, &evs)
	return evs, err
}

// Assign places a cluster session on the worker.
func (c *WorkerClient) Assign(ctx context.Context, cid uint64, spec service.SessionSpec) (service.SessionMetrics, error) {
	var m service.SessionMetrics
	err := c.do(ctx, "assign", http.MethodPost, "/ctl/assign", assignRequest{ID: cid, Spec: spec}, &m)
	return m, err
}

// Close gracefully stops one cluster session on the worker.
func (c *WorkerClient) Close(ctx context.Context, cid uint64) error {
	return c.do(ctx, "close", http.MethodDelete, fmt.Sprintf("/ctl/sessions/%d", cid), nil, nil)
}

// Metrics snapshots one cluster session on the worker.
func (c *WorkerClient) Metrics(ctx context.Context, cid uint64) (service.SessionMetrics, error) {
	var m service.SessionMetrics
	err := c.do(ctx, "metrics", http.MethodGet, fmt.Sprintf("/ctl/sessions/%d", cid), nil, &m)
	return m, err
}

// Draw dispenses n bytes of key material from a cluster session.
func (c *WorkerClient) Draw(ctx context.Context, cid uint64, n int) ([]byte, error) {
	var dr drawResponse
	if err := c.do(ctx, "draw", http.MethodPost, fmt.Sprintf("/ctl/sessions/%d/draw?bytes=%d", cid, n), nil, &dr); err != nil {
		return nil, err
	}
	return hex.DecodeString(dr.Key)
}

// StreamRangeTo streams key-material bytes [off, off+n) from a cluster
// session into w as the worker produces them (the coordinator's routed
// /stream body passes through here without being buffered). It returns
// the bytes written: 0 with a typed error when the worker rejected the
// request, possibly short with an error on a mid-body failure.
func (c *WorkerClient) StreamRangeTo(ctx context.Context, cid uint64, off, n int64, w io.Writer) (int64, error) {
	return c.doStream(ctx,
		fmt.Sprintf("/ctl/sessions/%d/stream?offset=%d&len=%d", cid, off, n), n, w)
}

// StreamRange reads key-material bytes [off, off+n) from a cluster
// session, materialized — the programmatic convenience over
// StreamRangeTo.
func (c *WorkerClient) StreamRange(ctx context.Context, cid uint64, off, n int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(n))
	if _, err := c.StreamRangeTo(ctx, cid, off, n, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Drain asks the worker to drain every session and zeroize every pool.
func (c *WorkerClient) Drain(ctx context.Context) error {
	return c.do(ctx, "drain", http.MethodPost, "/ctl/drain", nil, nil)
}
