package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Capacity bounds concurrently running sessions on this worker (the
	// underlying service's run slots). 0 means 16.
	Capacity int
	// DrainTimeout bounds each session's graceful drain. 0 means 10s.
	DrainTimeout time.Duration
	// Obs is the worker's metrics registry. Nil means a PRIVATE registry
	// per worker — not the process default — so the coordinator's fleet
	// merge (/v1/cluster/metrics) never double-counts a sample when
	// workers share its process (the InProcess spawner).
	Obs *obs.Registry
	// Spans is the worker's span ring. Nil means a private ring.
	Spans *obs.SpanLog
}

func (c *WorkerConfig) fill() {
	if c.Capacity <= 0 {
		c.Capacity = 16
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
}

// Worker hosts a bounded set of cluster sessions on one service instance
// and answers the coordinator's control RPC. The service is the worker's
// only session registry: it holds each session under its cluster id, and
// its /v1/sessions/{id} routes are the worker's data plane.
type Worker struct {
	cfg   WorkerConfig
	svc   *service.Service
	obs   *obs.Registry
	spans *obs.SpanLog

	draining  atomic.Bool
	drainOnce sync.Once
	drained   chan struct{} // closed once Drain has zeroized every pool

	// lastCtl is the unix-nano arrival time of the most recent control
	// RPC. A supervised worker process uses it to tell "my coordinator
	// is gone for good" from "my coordinator is restarting and will
	// re-adopt me": heartbeat probes from an adopting coordinator reset
	// the clock, sustained control silence is a real orphaning. Data-plane
	// traffic (draws and ranges routed by a gate) does not reset it.
	lastCtl atomic.Int64
}

// NewWorker starts a worker around a fresh service instance.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.fill()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Spans == nil {
		cfg.Spans = obs.NewSpanLog(obs.DefaultSpanCapacity)
	}
	return &Worker{
		cfg:   cfg,
		obs:   cfg.Obs,
		spans: cfg.Spans,
		svc: service.New(service.Config{
			MaxSessions:  cfg.Capacity,
			MaxQueued:    cfg.Capacity,
			DrainTimeout: cfg.DrainTimeout,
			Obs:          cfg.Obs,
			Spans:        cfg.Spans,
		}),
		drained: make(chan struct{}),
	}
}

// Obs returns the worker's metrics registry (never nil).
func (w *Worker) Obs() *obs.Registry { return w.obs }

// Spans returns the worker's span ring (never nil).
func (w *Worker) Spans() *obs.SpanLog { return w.spans }

// Service exposes the worker's session registry (metrics, tests).
func (w *Worker) Service() *service.Service { return w.svc }

// Assign places cluster session cid on this worker. Cluster sessions run
// over real sockets: the coordinator forces UDP in the spec it sends
// unless the session is Streamed. The session's bytes are the same on
// either bus, so any worker re-derives them from the spec.
func (w *Worker) Assign(cid uint64, spec service.SessionSpec) (*service.Session, error) {
	if w.draining.Load() {
		return nil, ErrDraining
	}
	s, err := w.svc.CreateID(cid, spec)
	if errors.Is(err, service.ErrShutdown) {
		return nil, ErrDraining // the drain began after the check above
	}
	return s, err
}

// Metrics snapshots one cluster session.
func (w *Worker) Metrics(cid uint64) (service.SessionMetrics, error) {
	s, err := w.svc.Lookup(cid)
	if err != nil {
		return service.SessionMetrics{}, fmt.Errorf("%w: %w", ErrNotFound, err)
	}
	return s.Metrics(), nil
}

// Drain gracefully stops every session and zeroizes every pool (the
// underlying service shutdown). After Drain the worker rejects
// assignments; a supervised worker process exits once Drained fires.
func (w *Worker) Drain(ctx context.Context) error {
	w.draining.Store(true)
	err := w.svc.Shutdown(ctx)
	w.drainOnce.Do(func() { close(w.drained) })
	return err
}

// Drained is closed once Drain has completed.
func (w *Worker) Drained() <-chan struct{} { return w.drained }

// WorkerStats is the /ctl/stats snapshot.
type WorkerStats struct {
	PID      int  `json:"pid"`
	Capacity int  `json:"capacity"`
	Draining bool `json:"draining"`
	// Sessions maps cluster session ids to their live metrics.
	Sessions map[uint64]service.SessionMetrics `json:"sessions"`
}

// Stats snapshots the worker: capacity, drain state, and every live
// cluster session. Finished sessions are left out, so the coordinator's
// reconciliation sees them disappear.
func (w *Worker) Stats() WorkerStats {
	st := WorkerStats{
		PID:      os.Getpid(),
		Capacity: w.cfg.Capacity,
		Draining: w.draining.Load(),
		Sessions: make(map[uint64]service.SessionMetrics),
	}
	for _, s := range w.svc.Sessions() {
		if state := s.State(); state == service.StateClosed || state == service.StateFailed {
			continue
		}
		st.Sessions[s.ID] = s.Metrics()
	}
	return st
}

// LastControlActivity reports when the last control RPC arrived (zero
// time if none has yet).
func (w *Worker) LastControlActivity() time.Time {
	ns := w.lastCtl.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Handler returns the worker's HTTP surface. Paths under /ctl/ are the
// coordinator's control RPC and stamp LastControlActivity; everything
// else is the service handler, whose /v1/sessions/{cid} routes serve
// draws, ranges, snapshots and closes. A worker creates sessions only
// through /ctl/assign, so the service's POST /v1/sessions is refused.
func (w *Worker) Handler() http.Handler {
	ctl, data := w.ctlMux(), w.svc.Handler()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/ctl/"):
			w.lastCtl.Store(time.Now().UnixNano())
			ctl.ServeHTTP(rw, r)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/sessions":
			writeError(rw, fmt.Errorf("%w: a worker places sessions only through POST /ctl/assign", httpapi.ErrBadRequest))
		default:
			data.ServeHTTP(rw, r)
		}
	})
}

func (w *Worker) ctlMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ctl/healthz", func(rw http.ResponseWriter, r *http.Request) {
		status := "ok"
		if w.draining.Load() {
			status = "draining"
		}
		writeJSON(rw, http.StatusOK, map[string]any{
			"status": status, "sessions": len(w.svc.Sessions()), "pid": os.Getpid(),
		})
	})
	mux.HandleFunc("GET /ctl/stats", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, w.Stats())
	})
	mux.HandleFunc("GET /ctl/metrics", func(rw http.ResponseWriter, r *http.Request) {
		// The coordinator's fleet scrape: the registry snapshot in its JSON
		// wire form, ready for bucket-wise merging coordinator-side.
		writeJSON(rw, http.StatusOK, w.obs.Snapshot())
	})
	mux.Handle("GET /ctl/trace", w.spans.Handler())
	mux.HandleFunc("POST /ctl/assign", func(rw http.ResponseWriter, r *http.Request) {
		var req assignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			badRequest(rw, err)
			return
		}
		s, err := w.Assign(req.ID, req.Spec)
		if err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, http.StatusCreated, s.Metrics())
	})
	mux.HandleFunc("POST /ctl/drain", func(rw http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), w.cfg.DrainTimeout+5*time.Second)
		defer cancel()
		if err := w.Drain(ctx); err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, http.StatusOK, map[string]any{"drained": true})
	})
	return mux
}
