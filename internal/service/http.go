package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// Handler returns the daemon's HTTP surface:
//
//	GET    /healthz                  liveness (200 while not shut down)
//	GET    /metrics                  Prometheus text exposition
//	GET    /v1/sessions              list session snapshots (JSON)
//	POST   /v1/sessions              create a session from a SessionSpec body
//	GET    /v1/sessions/{id}         one session's snapshot
//	DELETE /v1/sessions/{id}         gracefully close a session
//	POST   /v1/sessions/{id}/draw    draw ?bytes=N of key material (hex JSON)
//	GET    /v1/sessions/{id}/stream  read ?offset=&len= of raw key material
//
// Drawn keys leave the pool permanently (never reused); the draw endpoint
// exists for the loopback demo deployments this repo ships — a production
// deployment would keep keys on-box and hand out references.
//
// The stream endpoint is the bulk surface: a chunked
// application/octet-stream body of exactly len bytes, addressing the
// session's deterministic keystream by offset (repeatable, non-consuming
// — pad consumers own offset non-reuse; see Session.StreamRange).
func (sv *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"uptime": sv.Uptime().String(),
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		sv.Metrics().WriteProm(w)
		// Registry families (latency histograms, keystream pipeline,
		// engine phases) share the endpoint with the session snapshot.
		sv.obs.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteSnapshotJSON(w, sv.obs.Snapshot())
	})
	mux.Handle("GET /debug/trace", sv.spans.Handler())
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sv.Metrics())
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var spec SessionSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err)
			return
		}
		s, err := sv.Create(spec)
		if err != nil {
			httpapi.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, s.Metrics())
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := sv.sessionFromPath(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, ok := sv.sessionFromPath(w, r)
		if !ok {
			return
		}
		if err := sv.Close(s.ID); err != nil {
			httpapi.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"closed": s.ID})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/draw", func(w http.ResponseWriter, r *http.Request) {
		// The whole observability block is behind one enabled check so the
		// stripped draw path performs no clock reads, no span work, and no
		// allocation (the overhead gate in thinair-bench measures exactly
		// this handler). Span recording is additionally per-request
		// opt-in: only a caller-supplied X-Thinair-Span makes this draw
		// pay for ring records.
		obsOn := sv.obs.Enabled()
		var t0 time.Time
		var span string
		if obsOn {
			t0 = time.Now()
			span = obs.RequestSpan(w, r)
		}
		s, ok := sv.sessionFromPath(w, r)
		if !ok {
			if obsOn {
				sv.drawErr.ObserveSince(t0)
			}
			return
		}
		n, ok := httpapi.DrawBytes(w, r)
		if !ok {
			if obsOn {
				sv.drawErr.ObserveSince(t0)
			}
			return
		}
		key, err := s.Draw(n)
		if err != nil {
			err = keyError(w, s, err)
			if obsOn {
				now := time.Now()
				sv.drawErr.Observe(now.Sub(t0).Seconds())
				if span != "" {
					sv.recordHop(now, span, s, "draw", "error", err.Error())
				}
			}
			return
		}
		writeJSON(w, http.StatusOK, httpapi.DrawResponse{
			Session: s.ID, Bytes: n, Key: hex.EncodeToString(key),
		})
		if obsOn {
			// An untraced draw pays for two clock reads and the histogram
			// observation — nothing else. A traced one (span != "") adds
			// two ring records; RecordKVAt shares the clock read with the
			// observation and takes attributes without a map allocation.
			// The thinair-bench overhead gate holds the instrumented draw
			// under 2% of the stripped one.
			now := time.Now()
			sv.drawOK.Observe(now.Sub(t0).Seconds())
			if span != "" {
				sv.recordHop(now, span, s, "draw", "bytes", strconv.Itoa(n))
			}
		}
	})
	mux.HandleFunc("GET /v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		obsOn := sv.obs.Enabled()
		var t0 time.Time
		var span string
		if obsOn {
			t0 = time.Now()
			span = obs.RequestSpan(w, r)
		}
		s, ok := sv.sessionFromPath(w, r)
		if !ok {
			if obsOn {
				sv.streamErr.ObserveSince(t0)
			}
			return
		}
		off, n, ok := httpapi.StreamRange(w, r)
		if !ok {
			if obsOn {
				sv.streamErr.ObserveSince(t0)
			}
			return
		}
		served := sv.serveStream(w, r, s, off, n)
		if obsOn {
			now := time.Now()
			if served {
				sv.streamOK.Observe(now.Sub(t0).Seconds())
			} else {
				sv.streamErr.Observe(now.Sub(t0).Seconds())
			}
			if span != "" {
				sv.recordHop(now, span, s, "stream",
					"offset", strconv.FormatInt(off, 10),
					"len", strconv.FormatInt(n, 10))
			}
		}
	})
	return mux
}

// serveStream writes key-material bytes [off, off+n) as an octet-stream
// body of declared length n, flushing as blocks derive so the client's
// time-to-first-byte tracks the pipeline, not the whole range. A
// mid-range failure leaves the declared Content-Length unsatisfied and
// aborts the connection — truncation is loud, never a valid-looking
// short body (see httpapi.StreamBody).
func (sv *Service) serveStream(w http.ResponseWriter, r *http.Request, s *Session, off, n int64) bool {
	src, err := s.StreamRange(off, n)
	if err != nil {
		keyError(w, s, err)
		return false
	}
	return httpapi.StreamBody(w, r, src, n)
}

// keyError writes a failed draw or range and returns the error as sent.
// A failed session answers failed whatever its pool or stream reported,
// so clients can tell its death from their own Close.
func keyError(w http.ResponseWriter, s *Session, err error) error {
	if s.State() == StateFailed {
		err = fmt.Errorf("%w: %w", ErrFailed, err)
	}
	httpapi.WriteError(w, err)
	return err
}

// sessionFromPath resolves the {id} path value.
func (sv *Service) sessionFromPath(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err)
		return nil, false
	}
	s, err := sv.Lookup(id)
	if err != nil {
		httpapi.WriteError(w, err)
		return nil, false
	}
	return s, true
}

// spanHop is how a session names itself in span events: its tier and id
// attribute, taken from how it got its id.
type spanHop struct{ tier, attr, id string }

func newSpanHop(id uint64, cluster bool) spanHop {
	if cluster {
		return spanHop{"worker", "cluster_session", strconv.FormatUint(id, 10)}
	}
	return spanHop{"edge", "session", strconv.FormatUint(id, 10)}
}

// pid labels hop events, so a fleet trace shows which process served.
var pid = strconv.Itoa(os.Getpid())

// recordHop chains a traced key read into its span: the session's hop
// event, then an engine-tier event carrying the session's protocol-round
// counters, so one span id read back through /debug/trace walks
// edge → worker → engine round.
func (sv *Service) recordHop(at time.Time, span string, s *Session, op string, kv ...string) {
	h := s.hop
	sv.spans.RecordKVAt(at, span, h.tier, op, append([]string{h.attr, h.id, "pid", pid}, kv...)...)
	sv.spans.RecordKVAt(at, span, "engine", "round", h.attr, h.id,
		"rounds", strconv.FormatInt(s.rounds.Load(), 10),
		"productive", strconv.FormatInt(s.prodRound.Load(), 10))
}

// writeJSON is the JSON writer shared with the cluster tier
// (internal/httpapi), so both surfaces speak the same envelope.
func writeJSON(w http.ResponseWriter, status int, v any) { httpapi.WriteJSON(w, status, v) }
