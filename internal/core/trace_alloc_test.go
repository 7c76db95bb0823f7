package core

import (
	"testing"

	"repro/internal/obs"
)

// TestDisabledTracerEmitZeroAlloc gates the "zero-cost default" claim:
// with no span log configured, every emit site in the engine is a nil
// check and nothing else — in particular no attribute string is built.
func TestDisabledTracerEmitZeroAlloc(t *testing.T) {
	em := emitter{}
	if n := testing.AllocsPerRun(100, func() {
		em.roundStart(3, 1, 90)
		em.xPhaseDone(3, 42)
		em.planBuilt(3, 4, 5, 2, "leave-one-out", "balanced")
		em.roundAborted(3)
		em.secretDerived(3, 2, 2, true)
		em.sessionDone(4, 64, 0.038)
	}); n != 0 {
		t.Errorf("nil-tracer emit path allocates %v times per run; want 0", n)
	}
}

// The enabled path must still deliver every event with its attrs.
func TestEmitterDeliversEventsWhenEnabled(t *testing.T) {
	log := obs.NewSpanLog(16)
	em := newEmitter(log)
	em.roundStart(0, 1, 90)
	em.planBuilt(0, 4, 5, 2, "oracle", "balanced")
	em.sessionDone(1, 64, 0.038)
	events := log.Recent(0)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for _, e := range events {
		if e.Span != events[0].Span || e.Tier != "engine" {
			t.Fatalf("event %+v not on the session's engine span %s", e, events[0].Span)
		}
	}
	if events[0].Name != "round_start" || events[0].Attrs["leader"] != "1" || events[0].Attrs["round"] != "0" {
		t.Fatalf("round_start event = %+v", events[0])
	}
	if events[1].Attrs["estimator"] != "oracle" {
		t.Fatalf("plan_built event = %+v", events[1])
	}
	if events[2].Attrs["secret_bytes"] != "64" {
		t.Fatalf("session_done event = %+v", events[2])
	}
}
