package core

import (
	"strconv"

	"repro/internal/obs"
)

// emitter records a session's protocol events into the optional span log
// — the same event model the served tiers use — as one span per session:
// tier "engine", names round_start … session_done, the round as an
// attribute. Every emit site pays exactly one nil check when tracing is
// off. The attribute strings are built strictly after that check — the
// engine's "zero-cost default" claim depends on it, and
// trace_alloc_test.go gates the disabled path at zero allocations.
type emitter struct {
	log  *obs.SpanLog
	span string
}

func newEmitter(log *obs.SpanLog) emitter {
	if log == nil {
		return emitter{}
	}
	return emitter{log: log, span: obs.NewSpanID()}
}

func (e emitter) record(name string, kv ...string) {
	e.log.RecordKV(e.span, "engine", name, kv...)
}

func (e emitter) roundStart(round, leader, numX int) {
	if e.log == nil {
		return
	}
	e.record("round_start", "round", strconv.Itoa(round),
		"leader", strconv.Itoa(leader), "num_x", strconv.Itoa(numX))
}

func (e emitter) xPhaseDone(round, eveReceived int) {
	if e.log == nil {
		return
	}
	e.record("x_phase_done", "round", strconv.Itoa(round), "eve_received", strconv.Itoa(eveReceived))
}

func (e emitter) planBuilt(round, pools, m, l int, estimator, pooling string) {
	if e.log == nil {
		return
	}
	e.record("plan_built", "round", strconv.Itoa(round),
		"pools", strconv.Itoa(pools), "m", strconv.Itoa(m), "l", strconv.Itoa(l),
		"estimator", estimator, "pooling", pooling)
}

func (e emitter) roundAborted(round int) {
	if e.log == nil {
		return
	}
	e.record("round_aborted", "round", strconv.Itoa(round))
}

func (e emitter) secretDerived(round, secretPackets, eveUnknown int, agreed bool) {
	if e.log == nil {
		return
	}
	e.record("secret_derived", "round", strconv.Itoa(round),
		"secret_packets", strconv.Itoa(secretPackets), "eve_unknown", strconv.Itoa(eveUnknown),
		"agreed", strconv.FormatBool(agreed))
}

func (e emitter) sessionDone(rounds, secretBytes int, efficiency float64) {
	if e.log == nil {
		return
	}
	e.record("session_done", "rounds", strconv.Itoa(rounds),
		"secret_bytes", strconv.Itoa(secretBytes), "efficiency", strconv.FormatFloat(efficiency, 'g', 6, 64))
}
