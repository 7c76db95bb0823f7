package service

import (
	"io"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/obs"
)

// SessionMetrics is a point-in-time snapshot of one session's telemetry.
type SessionMetrics struct {
	ID    uint32 `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`

	Terminals int     `json:"terminals"`
	Erasure   float64 `json:"erasure"`
	UDP       bool    `json:"udp"`

	// Rounds / Productive count protocol rounds executed so far;
	// Refreshes / RefreshErrors count keystream blocks the background
	// refresher read into the pool, and those that failed.
	Rounds        int64 `json:"rounds"`
	Productive    int64 `json:"productive"`
	Refreshes     int64 `json:"refreshes"`
	RefreshErrors int64 `json:"refresh_errors"`
	// SecretBytes is the lifetime key material deposited into the pool.
	SecretBytes int64 `json:"secret_bytes"`

	Pool keypool.Stats `json:"pool"`

	// Stream is the session's keystream snapshot (nil while the session
	// is queued or after it has stopped).
	Stream *keystream.Stats `json:"stream,omitempty"`

	// Eve-bound estimate from the wire-level observer, when attached:
	// the paper's reliability metric over everything Eve overheard,
	// each derived block counted once.
	EveSecretDims  int     `json:"eve_secret_dims,omitempty"`
	EveUnknownDims int     `json:"eve_unknown_dims,omitempty"`
	EveReliability float64 `json:"eve_reliability,omitempty"`

	LastError string `json:"last_error,omitempty"`
}

// Metrics returns the session's snapshot. State and pool are read under
// the session's snapshot lock so a scrape racing a drain sees either the
// live session or the fully torn-down one, never a torn mix (a running
// state over a zeroized pool).
func (s *Session) Metrics() SessionMetrics {
	s.snapMu.RLock()
	m := SessionMetrics{
		ID:            s.ID,
		Name:          s.spec.Name,
		State:         s.State().String(),
		Terminals:     s.spec.Terminals,
		Erasure:       s.spec.Erasure,
		UDP:           s.spec.UDP,
		Rounds:        s.rounds.Load(),
		Productive:    s.prodRound.Load(),
		Refreshes:     s.refreshes.Load(),
		RefreshErrors: s.refreshEr.Load(),
		SecretBytes:   s.secretOut.Load(),
		Pool:          s.pool.Stats(),
	}
	s.snapMu.RUnlock()
	if str := s.Stream(); str != nil {
		st := str.Stats()
		m.Stream = &st
	}
	if sd, ud, ok := s.eveCertificate(); ok {
		m.EveSecretDims, m.EveUnknownDims = sd, ud
		if sd > 0 {
			m.EveReliability = core.Reliability(sd, ud)
		}
	}
	if err := s.LastErr(); err != nil {
		m.LastError = err.Error()
	}
	return m
}

// ServiceMetrics is the daemon-wide snapshot.
type ServiceMetrics struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	MaxSessions   int              `json:"max_sessions"`
	Running       int              `json:"running"`
	Queued        int              `json:"queued"`
	Created       int64            `json:"created_total"`
	Rejected      int64            `json:"rejected_total"`
	Removed       int64            `json:"removed_total"`
	Failed        int64            `json:"failed_total"`
	Sessions      []SessionMetrics `json:"sessions"`
}

// Metrics snapshots the whole daemon.
func (sv *Service) Metrics() ServiceMetrics {
	m := ServiceMetrics{
		UptimeSeconds: sv.Uptime().Seconds(),
		MaxSessions:   sv.cfg.MaxSessions,
		Created:       sv.created.Load(),
		Rejected:      sv.rejected.Load(),
		Removed:       sv.removed.Load(),
		Failed:        sv.failed.Load(),
	}
	for _, s := range sv.Sessions() {
		sm := s.Metrics()
		switch s.State() {
		case StateRunning:
			m.Running++
		case StateQueued:
			m.Queued++
		}
		m.Sessions = append(m.Sessions, sm)
	}
	return m
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (counters suffixed _total, gauges bare), one family per
// metric, with # HELP / # TYPE headers and escaped label values (a
// session Name is client-supplied and may contain quotes or newlines).
func (m ServiceMetrics) WriteProm(w io.Writer) {
	pw := obs.NewPromWriter(w)
	daemon := func(name, help, typ string, v float64) {
		pw.Family(name, help, typ)
		pw.Sample(name, v)
	}
	daemon("thinaird_uptime_seconds", "Seconds since the daemon started.", "gauge", m.UptimeSeconds)
	daemon("thinaird_sessions_running", "Sessions currently running.", "gauge", float64(m.Running))
	daemon("thinaird_sessions_queued", "Sessions admitted but waiting for a runner slot.", "gauge", float64(m.Queued))
	daemon("thinaird_sessions_created_total", "Sessions admitted over the daemon's lifetime.", "counter", float64(m.Created))
	daemon("thinaird_sessions_rejected_total", "Session creations refused by admission control.", "counter", float64(m.Rejected))
	daemon("thinaird_sessions_removed_total", "Sessions torn down and forgotten.", "counter", float64(m.Removed))
	daemon("thinaird_sessions_failed_total", "Sessions that terminated in the failed state.", "counter", float64(m.Failed))

	emit := func(family, help, typ string, value func(SessionMetrics) (float64, bool)) {
		first := true
		for _, s := range m.Sessions {
			v, ok := value(s)
			if !ok {
				continue
			}
			if first {
				pw.Family(family, help, typ)
				first = false
			}
			pw.Sample(family, v, "session", strconv.FormatUint(uint64(s.ID), 10), "name", s.Name)
		}
	}
	always := func(f func(SessionMetrics) float64) func(SessionMetrics) (float64, bool) {
		return func(s SessionMetrics) (float64, bool) { return f(s), true }
	}
	emit("thinaird_session_rounds_total", "Protocol rounds executed by the session.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.Rounds) }))
	emit("thinaird_session_productive_rounds_total", "Rounds that certified secret bits.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.Productive) }))
	emit("thinaird_session_refreshes_total", "Keystream blocks the background refresher read into the pool.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.Refreshes) }))
	emit("thinaird_session_refresh_errors_total", "Keystream block reads that failed.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.RefreshErrors) }))
	emit("thinaird_session_secret_bytes_total", "Key material deposited into the pool.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.SecretBytes) }))
	emit("thinaird_session_pool_available_bytes", "Undrawn key material in the pool.", "gauge",
		always(func(s SessionMetrics) float64 { return float64(s.Pool.Available) }))
	emit("thinaird_session_pool_drawn_bytes_total", "Key material drawn from the pool.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.Pool.Drawn) }))
	emit("thinaird_session_pool_low_water_hits_total", "Times the pool fell below its refresh watermark.", "counter",
		always(func(s SessionMetrics) float64 { return float64(s.Pool.LowWaterHits) }))
	emit("thinaird_session_pool_closed", "1 when the pool is zeroized and closed.", "gauge",
		always(func(s SessionMetrics) float64 {
			if s.Pool.Closed {
				return 1
			}
			return 0
		}))
	streamStat := func(f func(keystream.Stats) float64) func(SessionMetrics) (float64, bool) {
		return func(s SessionMetrics) (float64, bool) {
			if s.Stream == nil {
				return 0, false
			}
			return f(*s.Stream), true
		}
	}
	emit("thinaird_session_stream_blocks_total", "Keystream blocks derived.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.Blocks) }))
	emit("thinaird_session_stream_block_errors_total", "Keystream block derivations that failed.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.BlockErrors) }))
	emit("thinaird_session_stream_bytes_read_total", "Bytes read from the keystream.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.BytesRead) }))
	emit("thinaird_session_stream_verify_mismatch_total", "Per-round secret verifications that diverged.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.VerifyMismatch) }))
	emit("thinaird_session_stream_shed_frames_total", "Frames dropped on overflowing member inboxes.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.ShedFrames) }))
	emit("thinaird_session_stream_cache_hits_total", "Block acquisitions served from the resident cache.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.CacheHits) }))
	emit("thinaird_session_stream_cache_misses_total", "Block acquisitions that created or waited for a derivation.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.CacheMisses) }))
	emit("thinaird_session_stream_cache_evictions_total", "Resident blocks evicted by the LRU.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.CacheEvictions) }))
	emit("thinaird_session_stream_health_skips_total", "Report waits skipped for unresponsive members.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.HealthSkips) }))
	emit("thinaird_session_stream_health_probes_total", "Liveness re-probes of skipped members.", "counter",
		streamStat(func(st keystream.Stats) float64 { return float64(st.HealthProbes) }))
	emit("thinaird_session_eve_reliability", "Eve-bound reliability estimate from the wire observer.", "gauge",
		func(s SessionMetrics) (float64, bool) {
			if s.EveSecretDims == 0 || math.IsNaN(s.EveReliability) {
				return 0, false
			}
			return s.EveReliability, true
		})
}
