package cluster

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

// Handler returns the coordinator's public HTTP surface — the same shape
// as the single-process service API, with sessions addressed by their
// cluster id and draws routed to whichever worker owns the session:
//
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/trace              fleet span events (?span= narrows)
//	GET    /v1/cluster               workers + tier counters (JSON)
//	GET    /v1/cluster/metrics       fleet-merged registry snapshot
//	GET    /v1/cluster/owners        session→worker ownership map (+epoch;
//	                                 ?session= one entry, ?epoch= cheap poll)
//	GET    /v1/sessions              cluster sessions with live metrics
//	POST   /v1/sessions              create from a SessionSpec body
//	GET    /v1/sessions/{id}         one session's info + metrics
//	DELETE /v1/sessions/{id}         close tier-wide
//	POST   /v1/sessions/{id}/draw    draw ?bytes=N of key material
//	GET    /v1/sessions/{id}/stream  bulk ?offset=&len= key material
//
// Draw and stream requests are span roots: the edge mints (or passes
// through) an X-Thinair-Span id, echoes it on the response, and the
// routed worker RPC carries it so /debug/trace?span= shows the whole
// edge → worker → engine chain.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		m := c.Metrics()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":        "ok",
			"uptime":        c.Uptime().String(),
			"workers_alive": m.WorkersAlive,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.Metrics().WriteProm(w)
		_ = c.obs.Snapshot().WriteProm(w)
	})
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		evs := c.FleetTrace(r.Context(), r.URL.Query().Get("span"))
		writeJSON(w, http.StatusOK, evs)
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Metrics())
	})
	mux.HandleFunc("GET /v1/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		fleet := c.FleetSnapshot(r.Context())
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = fleet.WriteProm(w)
			return
		}
		writeJSON(w, http.StatusOK, fleet)
	})
	mux.HandleFunc("GET /v1/cluster/owners", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		// ?session=N resolves one entry — the gate's cache-miss path.
		if s := q.Get("session"); s != "" {
			cid, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				badRequest(w, err)
				return
			}
			oi, err := c.Owner(cid)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, oi)
			return
		}
		// ?epoch=N is the watch poll: 304 while the map hasn't moved, so
		// a gate's poll loop costs the coordinator one atomic load.
		if e := q.Get("epoch"); e != "" {
			have, err := strconv.ParseUint(e, 10, 64)
			if err != nil {
				badRequest(w, err)
				return
			}
			if c.OwnersEpoch() == have {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		writeJSON(w, http.StatusOK, c.Owners())
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Sessions(r.Context()))
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var spec service.SessionSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			badRequest(w, err)
			return
		}
		info, err := c.Create(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(w, r)
		if !ok {
			return
		}
		info, err := c.Session(r.Context(), cid)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(w, r)
		if !ok {
			return
		}
		if err := c.CloseSession(r.Context(), cid); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"closed": cid})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/draw", func(w http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(w, r)
		if !ok {
			return
		}
		n, ok := drawBytes(w, r)
		if !ok {
			return
		}
		ctx := r.Context()
		var span string
		if c.obs.Enabled() {
			// The coordinator edge always echoes the span — a routed draw
			// costs two RPC hops, so the header is free here and lets any
			// caller fetch the edge→worker→engine chain afterwards.
			span = obs.EnsureSpan(w, r)
			w.Header().Set(obs.SpanHeader, span)
			ctx = obs.WithSpan(ctx, span)
		}
		key, err := c.Draw(ctx, cid, n)
		if err != nil {
			writeError(w, err)
			return
		}
		if span != "" {
			c.spans.RecordKV(span, "edge", "draw",
				"cluster_session", strconv.FormatUint(cid, 10),
				"bytes", strconv.Itoa(n))
		}
		writeJSON(w, http.StatusOK, httpapi.DrawResponse{
			Session: cid, Bytes: n, Key: hex.EncodeToString(key),
		})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		cid, ok := sessionIDFromPath(w, r)
		if !ok {
			return
		}
		off, n, ok := streamRange(w, r)
		if !ok {
			return
		}
		ctx := r.Context()
		var span string
		if c.obs.Enabled() {
			span = obs.EnsureSpan(w, r)
			w.Header().Set(obs.SpanHeader, span)
			ctx = obs.WithSpan(ctx, span)
		}
		// The worker body passes straight through — never buffered at the
		// coordinator. Success headers are written lazily on the first
		// body byte, so a pre-body RPC rejection still gets the JSON
		// error envelope; a mid-body failure leaves the declared
		// Content-Length unsatisfied and aborts the connection instead of
		// terminating a valid-looking short body.
		sw := &passthroughWriter{w: w, n: n}
		if _, err := c.StreamRangeTo(ctx, cid, off, n, sw); err != nil {
			if !sw.wrote {
				writeError(w, err)
			}
			return
		}
		if span != "" {
			c.spans.RecordKV(span, "edge", "stream",
				"cluster_session", strconv.FormatUint(cid, 10),
				"offset", strconv.FormatInt(off, 10),
				"len", strconv.FormatInt(n, 10))
		}
	})
	return mux
}

// passthroughWriter defers a stream response's success headers to the
// first body byte and flushes each chunk, so routed stream reads keep
// the worker's time-to-first-byte while pre-body errors can still use
// the JSON envelope.
type passthroughWriter struct {
	w     http.ResponseWriter
	n     int64
	wrote bool
}

func (pw *passthroughWriter) Write(p []byte) (int, error) {
	if !pw.wrote {
		pw.wrote = true
		pw.w.Header().Set("Content-Type", "application/octet-stream")
		pw.w.Header().Set("Content-Length", strconv.FormatInt(pw.n, 10))
		pw.w.WriteHeader(http.StatusOK)
	}
	m, err := pw.w.Write(p)
	if err == nil {
		if f, ok := pw.w.(http.Flusher); ok {
			f.Flush()
		}
	}
	return m, err
}

// WriteProm renders the cluster snapshot in the Prometheus text format,
// prefixed thinaird_cluster_ so a coordinator and a single-process
// daemon can be scraped side by side.
func (m ClusterMetrics) WriteProm(w io.Writer) {
	pw := obs.NewPromWriter(w)
	single := func(name, help, typ string, v float64) {
		pw.Family(name, help, typ)
		pw.Sample(name, v)
	}
	single("thinaird_cluster_uptime_seconds", "Seconds since the coordinator started.", "gauge", m.UptimeSeconds)
	single("thinaird_cluster_workers_alive", "Worker slots currently answering heartbeats.", "gauge", float64(m.WorkersAlive))
	single("thinaird_cluster_sessions", "Cluster sessions known to the coordinator.", "gauge", float64(m.Sessions))
	single("thinaird_cluster_sessions_orphaned", "Sessions awaiting re-placement after a worker death.", "gauge", float64(m.Orphaned))
	single("thinaird_cluster_sessions_created_total", "Cluster sessions admitted over the coordinator's lifetime.", "counter", float64(m.Created))
	single("thinaird_cluster_sessions_removed_total", "Cluster sessions closed and forgotten.", "counter", float64(m.Removed))
	single("thinaird_cluster_sessions_failed_total", "Cluster sessions that could not be re-placed.", "counter", float64(m.Failed))
	pw.Family("thinaird_cluster_worker_sessions", "Assigned sessions per worker slot.", "gauge")
	for _, wi := range m.Workers {
		pw.Sample("thinaird_cluster_worker_sessions", float64(wi.Sessions),
			"slot", strconv.Itoa(wi.Slot), "alive", strconv.FormatBool(wi.Alive))
	}
}
