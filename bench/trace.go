package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The spans the benchmark owns, outermost first. Each sits at a layer
// boundary in the benchmark's own code: around a gate-client call,
// inside a gate.Backend wrapper, and inside a /ctl handler wrapper.
const (
	layerClient = iota // client.op
	layerGate          // gate.backend
	layerCtl           // cluster.ctl
	numLayers
)

var layerNames = [numLayers]string{"client.op", "gate.backend", "cluster.ctl"}

// selfMetricNames name each span's self time as a layer of the program:
// client.op's self time is client framing, loopback TCP and the gate;
// gate.backend's is the cluster's worker client and owner cache;
// cluster.ctl's is the worker handler and everything below it.
var selfMetricNames = [numLayers]string{"gate.self_us_p50", "cluster.rpc_self_us_p50", "cluster.ctl_us_p50"}

// span is one timed interval of one request, in nanoseconds since the
// tracer's base.
type span struct {
	req        uint64
	layer      int
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// Tracer modes.
const (
	traceOff  = iota // calls run bare
	traceTime        // client.op spans only, no request id sent downstream
	traceFull        // request ids ride the frames and the /ctl header
)

// tracer keeps spans in memory until the run ends. Request ids travel as
// the obs span id: the gate client puts it in the frame, the gate hands
// it to the backend in the context, and the worker client sends it as
// the X-Thinair-Span header.
type tracer struct {
	base time.Time
	mode atomic.Int32
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start switches the mode and drops the spans recorded so far.
func (t *tracer) start(mode int32) {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.mode.Store(mode)
}

// take switches tracing off and returns the spans recorded.
func (t *tracer) take() []span {
	t.mode.Store(traceOff)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func (t *tracer) record(req uint64, layer int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{req: req, layer: layer, start: start, end: end})
	t.mu.Unlock()
}

// requestID parses a request id the tracer minted.
func (t *tracer) requestID(s string) (uint64, bool) {
	if s == "" || t.mode.Load() != traceFull {
		return 0, false
	}
	id, err := strconv.ParseUint(s, 16, 64)
	return id, err == nil
}

// call runs one gate-client call, inside a client.op span unless tracing
// is off. A nil tracer runs the call bare.
func (t *tracer) call(ctx context.Context, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	mode := t.mode.Load()
	if mode == traceOff {
		return fn(ctx)
	}
	id := t.next.Add(1)
	if mode == traceFull {
		ctx = obs.WithSpan(ctx, strconv.FormatUint(id, 16))
	}
	start := t.now()
	err := fn(ctx)
	t.record(id, layerClient, start, t.now())
	return err
}

// ctlHandler is the cluster.ctl span around a worker's HTTP surface.
func (t *tracer) ctlHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := t.requestID(r.Header.Get(obs.SpanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(id, layerCtl, start, t.now())
	})
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	d := parent.dur()
	for _, c := range clip(children, parent) {
		d -= c.dur()
	}
	return d
}

// requestTimes splits each traced request's client.op time into the
// self times of the three layers. Per request the three add up to the
// client.op duration exactly; spans of requests without a client.op span
// (cut off at the window's edges) are dropped.
func requestTimes(spans []span) (client []int64, self [numLayers][]int64) {
	byReq := make(map[uint64]*[numLayers][]span)
	for _, s := range spans {
		r := byReq[s.req]
		if r == nil {
			r = new([numLayers][]span)
			byReq[s.req] = r
		}
		r[s.layer] = append(r[s.layer], s)
	}
	for _, r := range byReq {
		if len(r[layerClient]) != 1 {
			continue
		}
		c := r[layerClient][0]
		// Children are clipped to their parents, so time outside the
		// client.op interval is never attributed.
		gates := clip(r[layerGate], c)
		var gateSelf, ctlSelf int64
		for _, g := range gates {
			ctls := clip(r[layerCtl], g)
			gateSelf += selfTime(g, ctls)
			for _, h := range ctls {
				ctlSelf += h.dur()
			}
		}
		client = append(client, c.dur())
		self[layerClient] = append(self[layerClient], selfTime(c, gates))
		self[layerGate] = append(self[layerGate], gateSelf)
		self[layerCtl] = append(self[layerCtl], ctlSelf)
	}
	return client, self
}

// clip returns the spans' parts inside parent, merged so that no two
// overlap (overlap would count the same time twice).
func clip(spans []span, parent span) []span {
	var out []span
	for _, s := range spans {
		s.start, s.end = max(s.start, parent.start), min(s.end, parent.end)
		if s.start < s.end {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(x, y span) int { return cmp.Compare(x.start, y.start) })
	merged := out[:0]
	for _, s := range out {
		if n := len(merged); n > 0 && s.start <= merged[n-1].end {
			merged[n-1].end = max(merged[n-1].end, s.end)
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// ledger is the per-layer account of one workload's traced window.
type ledger struct {
	Workload string `json:"workload"`
	Requests int    `json:"requests"`
	// ClientOpUS is the traced client.op p50; the layer self-time p50s
	// plus UnattributedUS add up to it.
	ClientOpUS     float64            `json:"client_op_us_p50"`
	SelfUS         map[string]float64 `json:"self_us_p50"`
	UnattributedUS float64            `json:"unattributed_us"`
	// MissingLayer is set when the unattributed time reaches 10% of the
	// p50. The spans tile every request, so the gap is how far the
	// self-time medians fail to add up: a layer whose time varies too
	// much for its median to stand for it.
	MissingLayer bool `json:"missing_layer"`
	// ReferenceUS is the untraced client-call p50 measured just before
	// the traced window; OverheadPct compares the traced p50 with it.
	ReferenceUS float64            `json:"reference_us_p50"`
	OverheadPct float64            `json:"trace_overhead_pct"`
	CPUShares   map[string]float64 `json:"cpu_shares_pct"`
}

func newLedger(workload string, spans []span, reference []int64) ledger {
	client, self := requestTimes(spans)
	lg := ledger{
		Workload:    workload,
		Requests:    len(client),
		ClientOpUS:  p50us(client),
		SelfUS:      make(map[string]float64, numLayers),
		ReferenceUS: p50us(reference),
	}
	sum := 0.0
	for l := range numLayers {
		v := p50us(self[l])
		lg.SelfUS[selfMetricNames[l]] = v
		sum += v
	}
	lg.UnattributedUS = lg.ClientOpUS - sum
	lg.MissingLayer = math.Abs(lg.UnattributedUS) >= 0.1*lg.ClientOpUS
	if lg.ReferenceUS > 0 {
		lg.OverheadPct = 100 * (lg.ClientOpUS - lg.ReferenceUS) / lg.ReferenceUS
	}
	return lg
}

func p50us(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(s[rank(len(s), 0.5)]) / 1e3
}

// maxSpanRequests bounds spans.jsonl: the ledger uses every traced
// request, the file keeps the first ones, enough to inspect by hand.
const maxSpanRequests = 5000

// writeSpans writes the spans of the first maxSpanRequests requests as
// JSON lines: name, start, end, parent and request id.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  string `json:"parent,omitempty"`
		Request uint64 `json:"request"`
	}
	var firstReq uint64
	for _, s := range spans {
		if s.layer == layerClient && (firstReq == 0 || s.req < firstReq) {
			firstReq = s.req
		}
	}
	for _, s := range spans {
		if s.req < firstReq || s.req >= firstReq+maxSpanRequests {
			continue
		}
		l := line{Name: layerNames[s.layer], StartNS: s.start, EndNS: s.end, Request: s.req}
		if s.layer > layerClient {
			l.Parent = layerNames[s.layer-1]
		}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
