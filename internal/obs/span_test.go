package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestSpanIDsAreUniqueAndHex(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewSpanID()
		if len(id) != 16 {
			t.Fatalf("span id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate span id %q", id)
		}
		seen[id] = true
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	ctx := WithSpan(context.Background(), "abc123")
	if got := SpanID(ctx); got != "abc123" {
		t.Fatalf("SpanID = %q", got)
	}
	if got := SpanID(context.Background()); got != "" {
		t.Fatalf("empty ctx SpanID = %q", got)
	}
}

func TestSpanLogRingWraps(t *testing.T) {
	l := NewSpanLog(4)
	for i := 0; i < 6; i++ {
		l.Record("s", "edge", string(rune('a'+i)), nil)
	}
	got := l.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	if got[0].Name != "c" || got[3].Name != "f" {
		t.Fatalf("ring order = %v", got)
	}
	if events := l.Span("s"); len(events) != 4 {
		t.Fatalf("Span filter = %d events, want 4", len(events))
	}
	if events := l.Span("other"); len(events) != 0 {
		t.Fatal("Span filter leaked foreign events")
	}
}

func TestSpanLogConcurrent(t *testing.T) {
	l := NewSpanLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(NewSpanID(), "edge", "draw", nil)
				_ = l.Recent(8)
			}
		}()
	}
	wg.Wait()
	if len(l.Recent(0)) != 64 {
		t.Fatal("full ring does not report capacity events")
	}
}

func TestSpanHandlerFiltersBySpan(t *testing.T) {
	l := NewSpanLog(16)
	l.Record("want", "edge", "draw", map[string]string{"bytes": "32"})
	l.Record("other", "edge", "draw", nil)
	l.Record("want", "worker", "draw", nil)

	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?span=want", nil))
	var events []SpanEvent
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("handler returned %d events, want 2", len(events))
	}
	if events[0].Tier != "edge" || events[1].Tier != "worker" {
		t.Fatalf("tiers = %s,%s", events[0].Tier, events[1].Tier)
	}
	if events[0].Attrs["bytes"] != "32" {
		t.Fatal("attrs lost on the wire")
	}

	rec = httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=1", nil))
	events = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("n=1 returned %d events", len(events))
	}
}

func TestEnsureSpanMintsAndEchoes(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sessions/1/draw", nil)
	id := EnsureSpan(rec, req)
	if id == "" {
		t.Fatal("no span minted at the edge")
	}
	// Minted spans are not echoed — the hot path stays header-free for
	// callers that never asked for tracing.
	if got := rec.Header().Get(SpanHeader); got != "" {
		t.Fatalf("minted span leaked onto the response header: %q", got)
	}
	// Caller-supplied IDs pass through unchanged and are echoed back.
	rec = httptest.NewRecorder()
	req.Header.Set(SpanHeader, "upstream01234567")
	if got := EnsureSpan(rec, req); got != "upstream01234567" {
		t.Fatalf("propagated span = %q", got)
	}
	if got := rec.Header().Get(SpanHeader); got != "upstream01234567" {
		t.Fatalf("supplied span not echoed: %q", got)
	}
}

// TestRenderTrace: events group by span, oldest span first, each span's
// events in time order with offsets from its first event and key-sorted
// attributes.
func TestRenderTrace(t *testing.T) {
	t0 := time.Date(2012, 10, 29, 0, 0, 0, 0, time.UTC)
	events := []SpanEvent{
		{Span: "b", Time: t0.Add(5 * time.Millisecond), Tier: "edge", Name: "draw"},
		{Span: "a", Time: t0.Add(1500 * time.Microsecond), Tier: "engine", Name: "session_done",
			Attrs: map[string]string{"secret_bytes": "64", "rounds": "2"}},
		{Span: "a", Time: t0, Tier: "engine", Name: "round_start", Attrs: map[string]string{"round": "0"}},
	}
	want := "span a\n" +
		"       +0µs  engine round_start round=0\n" +
		"     +1.5ms  engine session_done rounds=2 secret_bytes=64\n" +
		"span b\n" +
		"       +0µs  edge   draw     \n"
	if got := RenderTrace(events); got != want {
		t.Fatalf("RenderTrace =\n%s\nwant\n%s", got, want)
	}
}
