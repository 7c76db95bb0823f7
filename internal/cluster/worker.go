package cluster

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
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
// and answers the coordinator's control RPC. Sessions are addressed by
// their cluster id; the worker-local service id is an implementation
// detail the coordinator never sees.
type Worker struct {
	cfg   WorkerConfig
	svc   *service.Service
	obs   *obs.Registry
	spans *obs.SpanLog

	mu        sync.Mutex
	byCluster map[uint64]*service.Session
	pending   map[uint64]bool // assigns in flight (duplicate-check to map-insert)
	draining  bool
	// failedIDs is a bounded FIFO memory of cluster ids whose session
	// died permanently, so lookups after the prune answer ErrFailed
	// instead of a bare ErrNotFound (mirrors Service's failure memory).
	failedIDs map[uint64]struct{}
	failedLog []uint64

	drainOnce sync.Once
	drained   chan struct{} // closed once Drain has zeroized every pool

	// lastCtl is the unix-nano arrival time of the most recent control
	// RPC. A supervised worker process uses it to tell "my coordinator
	// is gone for good" from "my coordinator is restarting and will
	// re-adopt me": heartbeat probes from an adopting coordinator reset
	// the clock, sustained control silence is a real orphaning.
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
		byCluster: make(map[uint64]*service.Session),
		pending:   make(map[uint64]bool),
		drained:   make(chan struct{}),
	}
}

// Obs returns the worker's metrics registry (never nil).
func (w *Worker) Obs() *obs.Registry { return w.obs }

// Spans returns the worker's span ring (never nil).
func (w *Worker) Spans() *obs.SpanLog { return w.spans }

// Service exposes the underlying session manager (metrics, tests).
func (w *Worker) Service() *service.Service { return w.svc }

// Assign places cluster session cid on this worker. Cluster sessions run
// over real sockets: the coordinator forces UDP in the spec it sends
// unless the session is Streamed. The session's bytes are the same on
// either bus, so any worker re-derives them from the spec.
func (w *Worker) Assign(cid uint64, spec service.SessionSpec) (*service.Session, error) {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return nil, ErrDraining
	}
	if w.pending[cid] {
		// A concurrent assign for the same id is between its duplicate
		// check and its map insert; without this reservation both would
		// create sessions and one would leak untracked.
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: cluster session %d (assign in flight)", ErrDuplicate, cid)
	}
	if old, ok := w.byCluster[cid]; ok {
		// A finished session may linger in the map; only a live one makes
		// the assignment a duplicate.
		if st := old.State(); st != service.StateClosed && st != service.StateFailed {
			w.mu.Unlock()
			return nil, fmt.Errorf("%w: cluster session %d", ErrDuplicate, cid)
		}
		delete(w.byCluster, cid)
	}
	w.pending[cid] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.pending, cid)
		w.mu.Unlock()
	}()

	s, err := w.svc.Create(spec)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	if w.draining {
		// Drain began while the session was being created; don't strand it.
		w.mu.Unlock()
		s.Close()
		return nil, ErrDraining
	}
	w.byCluster[cid] = s
	if _, ok := w.failedIDs[cid]; ok {
		// The id lives again (same spec re-placed); forget the old death.
		delete(w.failedIDs, cid)
		for i, id := range w.failedLog {
			if id == cid {
				w.failedLog = append(w.failedLog[:i], w.failedLog[i+1:]...)
				break
			}
		}
	}
	w.mu.Unlock()
	return s, nil
}

// lookup resolves a cluster id to its live session, pruning sessions that
// finished on their own (failed channels, explicit closes).
func (w *Worker) lookup(cid uint64) (*service.Session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.byCluster[cid]
	if !ok {
		if _, failed := w.failedIDs[cid]; failed {
			return nil, fmt.Errorf("cluster session %d: %w", cid, service.ErrFailed)
		}
		return nil, fmt.Errorf("%w: cluster session %d", ErrNotFound, cid)
	}
	if st := s.State(); st == service.StateClosed || st == service.StateFailed {
		delete(w.byCluster, cid)
		if st == service.StateFailed {
			w.noteFailed(cid)
			return nil, fmt.Errorf("cluster session %d: %w", cid, service.ErrFailed)
		}
		return nil, fmt.Errorf("%w: cluster session %d %v", ErrNotFound, cid, st)
	}
	return s, nil
}

// noteFailed records a permanently dead cluster id (caller holds w.mu).
func (w *Worker) noteFailed(cid uint64) {
	if w.failedIDs == nil {
		w.failedIDs = make(map[uint64]struct{})
	}
	if _, ok := w.failedIDs[cid]; ok {
		return
	}
	w.failedIDs[cid] = struct{}{}
	w.failedLog = append(w.failedLog, cid)
	if len(w.failedLog) > failedMemory {
		delete(w.failedIDs, w.failedLog[0])
		w.failedLog = w.failedLog[1:]
	}
}

// failedMemory bounds the worker's dead-session memory, mirroring the
// service-level bound.
const failedMemory = 1024

// Close gracefully stops one cluster session.
func (w *Worker) Close(cid uint64) error {
	s, err := w.lookup(cid)
	if err != nil {
		return err
	}
	w.mu.Lock()
	delete(w.byCluster, cid)
	w.mu.Unlock()
	s.Close()
	return nil
}

// Draw dispenses key material from a cluster session's pool.
func (w *Worker) Draw(cid uint64, n int) ([]byte, error) {
	s, err := w.lookup(cid)
	if err != nil {
		return nil, err
	}
	return s.Draw(n)
}

// streamSource resolves a cluster session's [off, off+n) key-material
// range to a reader over its keystream (Session.StreamRange): derived on
// demand, never materialized worker-side, and re-derived byte-identical
// by whichever worker owns the session next.
func (w *Worker) streamSource(cid uint64, off, n int64) (io.Reader, error) {
	s, err := w.lookup(cid)
	if err != nil {
		return nil, err
	}
	return s.StreamRange(off, n)
}

// Metrics snapshots one cluster session.
func (w *Worker) Metrics(cid uint64) (service.SessionMetrics, error) {
	s, err := w.lookup(cid)
	if err != nil {
		return service.SessionMetrics{}, err
	}
	return s.Metrics(), nil
}

// Drain gracefully stops every session and zeroizes every pool (the
// underlying service shutdown). After Drain the worker rejects
// assignments; a supervised worker process exits once Drained fires.
func (w *Worker) Drain(ctx context.Context) error {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
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
// cluster session. Finished sessions are pruned as a side effect, so the
// coordinator's reconciliation sees them disappear.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	live := make(map[uint64]*service.Session, len(w.byCluster))
	for cid, s := range w.byCluster {
		if st := s.State(); st == service.StateClosed || st == service.StateFailed {
			delete(w.byCluster, cid)
			continue
		}
		live[cid] = s
	}
	st := WorkerStats{
		PID:      os.Getpid(),
		Capacity: w.cfg.Capacity,
		Draining: w.draining,
		Sessions: make(map[uint64]service.SessionMetrics, len(live)),
	}
	w.mu.Unlock()
	for cid, s := range live {
		st.Sessions[cid] = s.Metrics()
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

// Handler returns the worker's HTTP surface: the control RPC under /ctl/
// plus the ordinary service handler (its /metrics and /v1/sessions views
// stay useful for debugging a single worker). Control requests stamp
// LastControlActivity before dispatch.
func (w *Worker) Handler() http.Handler {
	inner := w.ctlMux()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/ctl/") {
			w.lastCtl.Store(time.Now().UnixNano())
		}
		inner.ServeHTTP(rw, r)
	})
}

func (w *Worker) ctlMux() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", w.svc.Handler())
	mux.HandleFunc("GET /ctl/healthz", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		draining := w.draining
		sessions := len(w.byCluster)
		w.mu.Unlock()
		status := "ok"
		if draining {
			status = "draining"
		}
		writeJSON(rw, http.StatusOK, map[string]any{
			"status": status, "sessions": sessions, "pid": os.Getpid(),
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
	mux.HandleFunc("GET /ctl/sessions/{id}", func(rw http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(rw, r)
		if !ok {
			return
		}
		m, err := w.Metrics(cid)
		if err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, http.StatusOK, m)
	})
	mux.HandleFunc("DELETE /ctl/sessions/{id}", func(rw http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(rw, r)
		if !ok {
			return
		}
		if err := w.Close(cid); err != nil {
			writeError(rw, err)
			return
		}
		writeJSON(rw, http.StatusOK, map[string]any{"closed": cid})
	})
	mux.HandleFunc("POST /ctl/sessions/{id}/draw", func(rw http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(rw, r)
		if !ok {
			return
		}
		n, ok := drawBytes(rw, r)
		if !ok {
			return
		}
		key, err := w.Draw(cid, n)
		if err != nil {
			writeError(rw, err)
			return
		}
		w.recordSpan(r, cid, "draw", n)
		writeJSON(rw, http.StatusOK, drawResponse{
			Session: cid, Bytes: n, Key: hex.EncodeToString(key),
		})
	})
	mux.HandleFunc("GET /ctl/sessions/{id}/stream", func(rw http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(rw, r)
		if !ok {
			return
		}
		off, n, ok := streamRange(rw, r)
		if !ok {
			return
		}
		src, err := w.streamSource(cid, off, n)
		if err != nil {
			writeError(rw, err)
			return
		}
		// Chunked copy with a declared Content-Length: the range is never
		// buffered whole, and a mid-range failure aborts the connection
		// instead of terminating a short body cleanly.
		if httpapi.StreamBody(rw, r, src, n) {
			w.recordSpan(r, cid, "stream", int(n))
		}
	})
	return mux
}

// recordSpan chains a routed key read into the coordinator-minted span:
// one worker-tier event for the RPC, and one engine-tier event carrying
// the session's protocol-round counters, so a single span id read back
// through /debug/trace walks edge -> worker -> engine round.
func (w *Worker) recordSpan(r *http.Request, cid uint64, op string, n int) {
	if !w.obs.Enabled() {
		return
	}
	span := r.Header.Get(obs.SpanHeader)
	if span == "" {
		return
	}
	w.spans.RecordKV(span, "worker", op,
		"cluster_session", strconv.FormatUint(cid, 10),
		"bytes", strconv.Itoa(n),
		"pid", strconv.Itoa(os.Getpid()))
	if m, err := w.Metrics(cid); err == nil {
		w.spans.RecordKV(span, "engine", "round",
			"cluster_session", strconv.FormatUint(cid, 10),
			"rounds", strconv.FormatInt(m.Rounds, 10),
			"productive", strconv.FormatInt(m.Productive, 10))
	}
}
