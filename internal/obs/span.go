package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanHeader carries a span ID across process boundaries: minted at
// the daemon/coordinator HTTP edge, echoed on the response, and
// forwarded on every worker RPC so one draw's record chains
// edge → worker → engine round.
const SpanHeader = "X-Thinair-Span"

// DefaultSpanCapacity is the per-process ring size.
const DefaultSpanCapacity = 4096

// SpanEvent is one record on a span's causal chain.
type SpanEvent struct {
	Span  string            `json:"span"`
	Time  time.Time         `json:"time"`
	Tier  string            `json:"tier"` // edge | worker | engine
	Name  string            `json:"name"` // draw | stream | round | ...
	Attrs map[string]string `json:"attrs,omitempty"`

	// kv holds attributes recorded via RecordKV as alternating
	// key/value pairs; snapshot materialises them into Attrs so hot
	// paths never pay for a map allocation.
	kv []string
}

// SpanLog is a fixed-capacity ring buffer of span events. All methods
// are safe for concurrent use and no-ops on a nil receiver, so span
// recording can be plumbed optionally.
type SpanLog struct {
	mu   sync.Mutex
	buf  []SpanEvent
	next int
	full bool
}

// NewSpanLog returns a ring holding up to capacity events.
func NewSpanLog(capacity int) *SpanLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanLog{buf: make([]SpanEvent, capacity)}
}

// Record appends one event. attrs is retained — pass a fresh map.
func (l *SpanLog) Record(span, tier, name string, attrs map[string]string) {
	if l == nil || span == "" {
		return
	}
	e := SpanEvent{Span: span, Time: time.Now(), Tier: tier, Name: name, Attrs: attrs}
	l.mu.Lock()
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next, l.full = 0, true
	}
	l.mu.Unlock()
}

// RecordKV appends one event with attributes given as alternating
// key/value pairs. Unlike Record it never allocates a map — the edge
// hot path uses it so the instrumented draw stays near the stripped
// one. A trailing odd key is dropped.
func (l *SpanLog) RecordKV(span, tier, name string, kv ...string) {
	l.RecordKVAt(time.Now(), span, tier, name, kv...)
}

// RecordKVAt is RecordKV with a caller-supplied timestamp, so a handler
// that already read the clock for a latency observation can stamp the
// span event from the same read instead of paying for another.
func (l *SpanLog) RecordKVAt(at time.Time, span, tier, name string, kv ...string) {
	if l == nil || span == "" {
		return
	}
	e := SpanEvent{Span: span, Time: at, Tier: tier, Name: name, kv: kv}
	l.mu.Lock()
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next, l.full = 0, true
	}
	l.mu.Unlock()
}

// materialise converts a RecordKV event's pair list into Attrs.
func materialise(e SpanEvent) SpanEvent {
	if e.Attrs == nil && len(e.kv) >= 2 {
		m := make(map[string]string, len(e.kv)/2)
		for i := 0; i+1 < len(e.kv); i += 2 {
			m[e.kv[i]] = e.kv[i+1]
		}
		e.Attrs = m
	}
	e.kv = nil
	return e
}

// snapshot returns the buffered events oldest-first.
func (l *SpanLog) snapshot() []SpanEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	var out []SpanEvent
	if !l.full {
		out = append(out, l.buf[:l.next]...)
	} else {
		out = make([]SpanEvent, 0, len(l.buf))
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	}
	l.mu.Unlock()
	for i := range out {
		out[i] = materialise(out[i])
	}
	return out
}

// Span returns every buffered event for one span ID, oldest-first.
func (l *SpanLog) Span(id string) []SpanEvent {
	var out []SpanEvent
	for _, e := range l.snapshot() {
		if e.Span == id {
			out = append(out, e)
		}
	}
	return out
}

// Recent returns the newest n events, oldest-first.
func (l *SpanLog) Recent(n int) []SpanEvent {
	all := l.snapshot()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Handler serves the ring as JSON: GET ?span=ID filters to one span,
// ?n=N bounds the unfiltered listing (default 256).
func (l *SpanLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var events []SpanEvent
		if id := r.URL.Query().Get("span"); id != "" {
			events = l.Span(id)
		} else {
			n := 256
			if s := r.URL.Query().Get("n"); s != "" {
				if v, err := strconv.Atoi(s); err == nil && v > 0 {
					n = v
				}
			}
			events = l.Recent(n)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteEvents(w, events)
	})
}

// WriteEvents writes events as the indented JSON array /debug/trace
// serves ([] when there are none).
func WriteEvents(w io.Writer, events []SpanEvent) error {
	if events == nil {
		events = []SpanEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}

type spanCtxKey struct{}

// WithSpan attaches a span ID to ctx for downstream RPC propagation.
func WithSpan(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// SpanID returns the span ID attached to ctx, if any.
func SpanID(ctx context.Context) string {
	id, _ := ctx.Value(spanCtxKey{}).(string)
	return id
}

var (
	spanBase = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	spanCtr atomic.Uint64
)

// NewSpanID mints a 16-hex-char process-unique span ID: a random base
// xor a splitmix64-scrambled counter — concurrency-safe and cheap
// enough for the edge hot path.
func NewSpanID() string {
	x := spanBase + spanCtr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		b[15-i] = hexdigits[x&0xf]
		x >>= 4
	}
	return string(b[:])
}

// EnsureSpan returns the request's span ID, minting one when the edge
// is the origin. A caller-supplied span is echoed on the response to
// confirm it was honored (the caller opted into tracing and already
// pays for the header both ways); a minted span is not — the
// single-process draw path stays free of the response-header write and
// the client-side parse it would force on every uninstrumented caller.
// Multi-hop edges that want discoverable minted spans (the cluster
// coordinator, whose draw is an RPC fan-out where a header is noise)
// set SpanHeader on the response themselves.
func EnsureSpan(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(SpanHeader)
	if id == "" {
		return NewSpanID()
	}
	w.Header().Set(SpanHeader, id)
	return id
}

// RequestSpan returns the caller-supplied span ID, echoed on the
// response, or "" when the request carries none. Single-process edges
// use it instead of EnsureSpan: tracing is per-request opt-in (the
// W3C trace-context model — the caller owns the ID), so an untraced
// draw pays for no minting, no header write, and no ring record. The
// cluster coordinator is the one edge that mints unconditionally — a
// routed draw's RPC fan-out both dwarfs the cost and is the case where
// after-the-fact trace discovery earns its keep.
func RequestSpan(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(SpanHeader)
	if id != "" {
		w.Header().Set(SpanHeader, id)
	}
	return id
}

// RenderTrace groups events by span (chronological within each span)
// and prints offsets relative to the span's first event, so one draw
// reads as its edge → worker → engine chain and one simulated session as
// its rounds. `thinaird trace` and `thinair-sim -trace text` print it.
func RenderTrace(events []SpanEvent) string {
	bySpan := make(map[string][]SpanEvent)
	var order []string
	for _, e := range events {
		if _, seen := bySpan[e.Span]; !seen {
			order = append(order, e.Span)
		}
		bySpan[e.Span] = append(bySpan[e.Span], e)
	}
	// Oldest span first, by its earliest event.
	sort.SliceStable(order, func(i, j int) bool {
		return earliest(bySpan[order[i]]).Before(earliest(bySpan[order[j]]))
	})

	var b strings.Builder
	for _, id := range order {
		evs := bySpan[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
		t0 := evs[0].Time
		fmt.Fprintf(&b, "span %s\n", id)
		for _, e := range evs {
			fmt.Fprintf(&b, "  %+9s  %-6s %-8s %s\n",
				fmtOffset(e.Time.Sub(t0)), e.Tier, e.Name, fmtAttrs(e.Attrs))
		}
	}
	return b.String()
}

func earliest(evs []SpanEvent) time.Time {
	t := evs[0].Time
	for _, e := range evs[1:] {
		if e.Time.Before(t) {
			t = e.Time
		}
	}
	return t
}

func fmtOffset(d time.Duration) string {
	if d <= 0 {
		return "+0µs"
	}
	return "+" + d.Round(time.Microsecond).String()
}

// fmtAttrs renders attributes key-sorted so output is deterministic.
func fmtAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return strings.Join(parts, " ")
}
