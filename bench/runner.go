package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gate"
	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/service"
)

// options fix one workload run.
type options struct {
	workload *workload
	seed     int64
	window   time.Duration
	warmup   time.Duration
	// setupReps is how many times the stack is set up; setup_s is the
	// median, and the last set-up is the one measured.
	setupReps int
	trace     bool
	traceDir  string
}

// setupTimeout bounds one set-up, first operation included.
const setupTimeout = 120 * time.Second

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// record is one workload's result.
type record struct {
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Tail names the percentile latency_tail_ms reports (see tailPercentile).
	Tail    string            `json:"tail_percentile,omitempty"`
	Metrics map[string]metric `json:"metrics"`
}

// live is a workload set up and ready for load.
type live struct {
	st      *stack
	sids    []uint64
	clients []*gate.Client
	load    load
}

func (lv *live) close() error {
	for _, c := range lv.clients {
		c.Close()
	}
	return lv.st.close()
}

// setUp brings the stack up, creates the workload's sessions, waits
// until each pool reaches its target depth, dials one gate connection
// per caller and runs the first operation to success.
func setUp(ctx context.Context, wl *workload, in inputs, tr *tracer) (*live, error) {
	st, err := startStack(tr)
	if err != nil {
		return nil, err
	}
	lv := &live{st: st}
	fail := func(err error) (*live, error) {
		lv.close()
		return nil, err
	}
	for _, spec := range in.specs {
		info, err := st.co.Create(spec)
		if err != nil {
			return fail(fmt.Errorf("creating a session: %w", err))
		}
		lv.sids = append(lv.sids, info.ID)
	}
	for _, sid := range lv.sids {
		s, err := st.session(sid)
		if err != nil {
			return fail(err)
		}
		if err := s.WaitReady(ctx); err != nil {
			return fail(err)
		}
	}
	for range wl.callers {
		c, err := gate.Dial(st.addr)
		if err != nil {
			return fail(fmt.Errorf("dialing the gate: %w", err))
		}
		lv.clients = append(lv.clients, c)
	}
	lv.load = wl.newLoad(in, lv.sids)
	if err := lv.load.op(ctx, 0, lv.clients[0], nil); err != nil {
		return fail(fmt.Errorf("first operation: %w", err))
	}
	return lv, nil
}

// phase is what one stretch of closed-loop load did.
type phase struct {
	lat        []int64 // latency of each successful operation, ns
	ok, failed int64
}

// runPhase drives every caller in a closed loop for d. Operations that
// finish after d are neither counted nor timed. latCap preallocates the
// per-caller latency records; done, when non-nil, counts successes as
// they happen.
func runPhase(lv *live, d time.Duration, tr *tracer, latCap int, done *atomic.Int64) phase {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	deadline, _ := ctx.Deadline()
	per := make([]phase, len(lv.clients))
	var wg sync.WaitGroup
	for i, c := range lv.clients {
		per[i].lat = make([]int64, 0, latCap)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &per[i]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := lv.load.op(ctx, i, c, tr)
				t1 := time.Now()
				if t1.After(deadline) {
					return
				}
				if err != nil {
					p.failed++
					continue
				}
				p.ok++
				p.lat = append(p.lat, int64(t1.Sub(t0)))
				if done != nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	var all phase
	for _, p := range per {
		all.ok += p.ok
		all.failed += p.failed
		all.lat = append(all.lat, p.lat...)
	}
	return all
}

// runWorkload sets the workload up, warms it, measures one window and
// verifies every output it recorded. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones.
func runWorkload(opts options) (*record, error) {
	wl := opts.workload
	in := makeInputs(wl, opts.seed)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var setups []float64
	var lv *live
	for i := range opts.setupReps {
		ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
		t0 := time.Now()
		l, err := setUp(ctx, wl, in, tr)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < opts.setupReps-1 {
			if err := l.close(); err != nil {
				return nil, fmt.Errorf("tearing down a set-up: %w", err)
			}
			continue
		}
		lv = l
	}
	defer lv.close()

	warm := runPhase(lv, opts.warmup, nil, 0, nil)
	// Size the records for the window from the warm-up's rate, with room
	// to spare, so the window's own recording never reallocates.
	perCaller := int(float64(warm.ok)/opts.warmup.Seconds()*opts.window.Seconds()*1.5)/len(lv.clients) + 1024
	lv.load.reserve(perCaller)

	var rec *record
	var err error
	if opts.trace {
		rec, err = measureTraced(opts, lv, in, tr, perCaller)
	} else {
		rec, err = measure(opts, lv, perCaller, setups)
	}
	if err != nil {
		return nil, err
	}
	if err := lv.load.verify(in); err != nil {
		rec.Errors = append(rec.Errors, "verification: "+err.Error())
	}
	rec.Correct = len(rec.Errors) == 0
	return rec, nil
}

// sampleEvery is the sampler's period; samplesPerSlice of them make the
// one-second slices allocation is reported over.
const (
	sampleEvery     = 100 * time.Millisecond
	samplesPerSlice = 10
)

// sample is one reading of the process during a window.
type sample struct {
	ops            int64
	alloc, mallocs uint64 // cumulative bytes and objects allocated
	heapInuse      uint64
}

// window is one measured stretch: the load's phase, the process CPU time
// it used, and the sampler's readings from its start to its end.
type window struct {
	phase
	dur     time.Duration
	cpu     time.Duration
	samples []sample
}

// measureWindow runs the load for d while sampling the process.
func measureWindow(lv *live, d time.Duration, tr *tracer, latCap int) window {
	var ops atomic.Int64
	stop, out := make(chan struct{}), make(chan []sample)
	read := func() sample {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return sample{ops: ops.Load(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, heapInuse: ms.HeapInuse}
	}
	first := read()
	go func() {
		samples := []sample{first}
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- append(samples, read())
				return
			case <-t.C:
				samples = append(samples, read())
			}
		}
	}()
	cpu0 := cpuTime()
	ph := runPhase(lv, d, tr, latCap, &ops)
	cpu := cpuTime() - cpu0
	close(stop)
	return window{phase: ph, dur: d, cpu: cpu, samples: <-out}
}

// perOp is the median, over the window's one-second slices, of a
// cumulative counter's growth per operation completed in the slice. A
// median over slices keeps a background burst (a pool refill deriving
// 4 MiB at once) from swinging the value with where it falls.
func (w window) perOp(counter func(sample) uint64) float64 {
	var per []float64
	for i := samplesPerSlice; i < len(w.samples); i += samplesPerSlice {
		a, b := w.samples[i-samplesPerSlice], w.samples[i]
		if n := b.ops - a.ops; n > 0 {
			per = append(per, float64(counter(b)-counter(a))/float64(n))
		}
	}
	if len(per) == 0 { // a window shorter than a slice
		a, b := w.samples[0], w.samples[len(w.samples)-1]
		return ratio(float64(counter(b)-counter(a)), float64(b.ops-a.ops))
	}
	return medianOf(per)
}

// metrics derives the end-to-end metrics of a window of a workload whose
// successful operation delivers opBytes key bytes, and the percentile
// latency_tail_ms reports.
func (w window) metrics(opBytes int) (map[string]metric, string) {
	lat := make([]float64, len(w.lat))
	for i, ns := range w.lat {
		lat[i] = float64(ns) / 1e6
	}
	slices.Sort(lat)
	q, label := tailPercentile(len(lat))
	var peak uint64
	for _, s := range w.samples {
		peak = max(peak, s.heapInuse)
	}
	ops, n, sec := float64(w.ok), w.ok, w.dur.Seconds()
	return map[string]metric{
		"ops_per_s":       {ops / sec, "1/s", n},
		"goodput_MBps":    {ops * float64(opBytes) / sec / 1e6, "MB/s", n},
		"latency_p50_ms":  {percentile(lat, 0.5), "ms", n},
		"latency_tail_ms": {percentile(lat, q), "ms", n},
		"cpu_us_per_op":   {ratio(w.cpu.Seconds(), ops) * 1e6, "us", n},
		"heap_peak_MB":    {float64(peak) / 1e6, "MB", int64(len(w.samples))},
		"alloc_KB_per_op": {w.perOp(func(s sample) uint64 { return s.alloc }) / 1e3, "KB", n},
		"allocs_per_op":   {w.perOp(func(s sample) uint64 { return s.mallocs }), "count", n},
	}, label
}

// endToEnd are the metrics an untraced run gates on, with setup_s; the
// other window metrics are reported too, but only these hold a bound
// on a shared machine (see README.md). BENCHMARK.json lists them.
var endToEnd = []string{"setup_s", "alloc_KB_per_op", "allocs_per_op"}

// measure runs the untraced window and derives the end-to-end metrics.
func measure(opts options, lv *live, latCap int, setups []float64) (*record, error) {
	w := measureWindow(lv, opts.window, nil, latCap)
	if w.ok == 0 {
		return nil, errors.New("no operation succeeded in the window")
	}
	m, tail := w.metrics(opts.workload.opBytes)
	m["setup_s"] = metric{medianOf(setups), "s", int64(len(setups))}
	return &record{Attempted: w.ok + w.failed, Failed: w.failed, Tail: tail, Metrics: m}, nil
}

// counters is a point-in-time read of the program's own counters and
// histograms, through their public snapshot functions.
type counters struct {
	workers  obs.Snapshot // every worker's registry, merged
	front    obs.Snapshot // coordinator, gate backend and gate
	sessions []service.SessionMetrics
	// attempts and exhausted are the benchmark's own draw-call counts.
	attempts, exhausted int64
	gf                  gf.DispatchCounts
	cpu                 time.Duration
}

func readCounters(lv *live) (counters, error) {
	c := counters{
		workers: lv.st.workers.snapshot(),
		front:   lv.st.reg.Snapshot(),
		gf:      gf.ReadDispatchCounts(),
		cpu:     cpuTime(),
	}
	for _, sid := range lv.sids {
		s, err := lv.st.session(sid)
		if err != nil {
			return c, err
		}
		c.sessions = append(c.sessions, s.Metrics())
	}
	if dl, ok := lv.load.(*drawLoad); ok {
		c.attempts, c.exhausted = dl.totals()
	}
	return c, nil
}

// measureTraced runs the traced window: first an untraced reference
// stretch (a third of the window, client calls timed only), then the
// traced stretch with every span, the program's counters, gf dispatch
// counting and a CPU profile. Probes of single layers follow.
func measureTraced(opts options, lv *live, in inputs, tr *tracer, latCap int) (*record, error) {
	dir := filepath.Join(opts.traceDir, opts.workload.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	refDur := opts.window / 3
	tr.start(traceTime)
	ref := measureWindow(lv, refDur, tr, latCap)
	var reference []int64
	for _, s := range tr.take() {
		if s.layer == layerClient {
			reference = append(reference, s.dur())
		}
	}

	profPath := filepath.Join(dir, "cpu-"+opts.workload.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	gf.SetDispatchCounting(true)
	defer gf.SetDispatchCounting(false)
	before, err := readCounters(lv)
	if err != nil {
		prof.Close()
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tr.start(traceFull)
	window := opts.window - refDur
	ph := runPhase(lv, window, tr, latCap, nil)
	spans := tr.take()
	pprof.StopCPUProfile()
	after, err := readCounters(lv)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	probes, err := runProbes(lv, in)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	shares, samples, err := cpuShares(profPath)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	lg := newLedger(opts.workload.name, spans, reference)
	lg.CPUShares = shares
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "ledger.json"), lg); err != nil {
		return nil, err
	}

	metrics := layerMetrics(lg, before, after, ph.ok, window.Seconds())
	for k, v := range probes {
		metrics[k] = v
	}
	// The untraced reference stretch gives the window metrics that are
	// reported but not gated; the gated ones come from untraced runs.
	refMetrics, tail := ref.metrics(opts.workload.opBytes)
	for k, v := range refMetrics {
		if !slices.Contains(endToEnd, k) {
			metrics[k] = v
		}
	}
	for _, b := range cpuBuckets {
		metrics["cpu."+b] = metric{shares[b], "%", samples}
	}
	return &record{Attempted: ph.ok + ph.failed, Failed: ph.failed, Tail: tail, Metrics: metrics}, nil
}

// layerMetrics turns the ledger and the counter deltas over the traced
// window into the per-layer metrics.
func layerMetrics(lg ledger, b, a counters, ops int64, sec float64) map[string]metric {
	reqs := int64(lg.Requests)
	m := map[string]metric{
		"trace.client_op_us_p50": {lg.ClientOpUS, "us", reqs},
		"ledger.unattributed_us": {lg.UnattributedUS, "us", reqs},
		"trace.overhead_pct":     {lg.OverheadPct, "%", reqs},
	}
	for _, name := range selfMetricNames {
		m[name] = metric{lg.SelfUS[name], "us", reqs}
	}

	derive := histDelta(b.workers, a.workers, "thinaird_keystream_block_derive_seconds")
	exch := histDelta(b.workers, a.workers, "thinaird_keystream_exchange_seconds")
	comp := histDelta(b.workers, a.workers, "thinaird_keystream_compute_seconds")
	m["keystream.block_derive_ms_mean"] = metric{ratio(derive.Sum, float64(derive.Count)) * 1e3, "ms", int64(derive.Count)}
	m["keystream.exchange_share"] = metric{ratio(exch.Sum, derive.Sum), "ratio", int64(exch.Count)}
	m["keystream.compute_share"] = metric{ratio(comp.Sum, derive.Sum), "ratio", int64(comp.Count)}

	var hits, misses, rounds, blocks, productive, ackTimeouts float64
	var sRounds, sProductive, sSecret, lowWater float64
	for i := range a.sessions {
		sa, sb := a.sessions[i], b.sessions[i]
		if sa.Stream != nil && sb.Stream != nil {
			hits += float64(sa.Stream.CacheHits - sb.Stream.CacheHits)
			misses += float64(sa.Stream.CacheMisses - sb.Stream.CacheMisses)
			rounds += float64(sa.Stream.Rounds - sb.Stream.Rounds)
			blocks += float64(sa.Stream.Blocks - sb.Stream.Blocks)
			productive += float64(sa.Stream.Productive - sb.Stream.Productive)
			ackTimeouts += float64(sa.Stream.AckTimeouts - sb.Stream.AckTimeouts)
		}
		sRounds += float64(sa.Rounds - sb.Rounds)
		sProductive += float64(sa.Productive - sb.Productive)
		sSecret += float64(sa.SecretBytes - sb.SecretBytes)
		lowWater += float64(sa.Pool.LowWaterHits - sb.Pool.LowWaterHits)
	}
	m["keystream.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio", int64(hits + misses)}
	m["keystream.rounds_per_block"] = metric{ratio(rounds, blocks), "count", int64(blocks)}
	m["keystream.productive_ratio"] = metric{ratio(productive, rounds), "ratio", int64(rounds)}
	m["keystream.ack_timeouts"] = metric{ackTimeouts, "count", int64(rounds)}

	batch := histDelta(b.workers, a.workers, "thinaird_draw_batch_size")
	draws := float64(a.attempts - b.attempts)
	m["service.combined_share"] = metric{ratio(batch.Sum, draws), "ratio", int64(draws)}
	m["service.batch_size_mean"] = metric{ratio(batch.Sum, float64(batch.Count)), "count", int64(batch.Count)}
	m["keypool.exhausted_share"] = metric{ratio(float64(a.exhausted-b.exhausted), draws), "ratio", int64(draws)}
	m["keypool.low_water_hits_per_s"] = metric{lowWater / sec, "1/s", int64(lowWater)}

	round := histDelta(b.workers, a.workers, "thinaird_engine_round_seconds")
	m["engine.round_ms_p50"] = metric{round.Quantile(0.5) * 1e3, "ms", int64(round.Count)}
	m["engine.rounds_per_s"] = metric{sRounds / sec, "1/s", int64(sRounds)}
	m["engine.productive_ratio"] = metric{ratio(sProductive, sRounds), "ratio", int64(sRounds)}
	m["engine.secret_B_per_round"] = metric{ratio(sSecret, sRounds), "B", int64(sRounds)}

	hit := counterDelta(b.front, a.front, "thinaird_gate_owner_cache_total", "hit")
	miss := counterDelta(b.front, a.front, "thinaird_gate_owner_cache_total", "miss")
	m["gate.owner_cache_hit_ratio"] = metric{ratio(hit, hit+miss), "ratio", int64(hit + miss)}

	calls := float64(a.gf.AddMulSlices - b.gf.AddMulSlices)
	fused := float64(a.gf.AddMulSlicesFused - b.gf.AddMulSlicesFused)
	m["gf.calls_per_op"] = metric{ratio(calls, float64(ops)), "count", ops}
	m["gf.fused_share"] = metric{ratio(fused, calls), "ratio", int64(calls)}

	cpu := (a.cpu - b.cpu).Seconds()
	m["cpu.utilization"] = metric{cpu / (sec * float64(runtime.GOMAXPROCS(0))), "ratio", ops}
	return m
}

// histDelta is the named histogram's change between two snapshots, all
// series summed.
func histDelta(before, after obs.Snapshot, name string) obs.HistogramSnapshot {
	a, b := histSum(after, name), histSum(before, name)
	if len(b.Counts) == len(a.Counts) { // else the family first appeared in the window
		for i := range a.Counts {
			a.Counts[i] -= b.Counts[i]
		}
		a.Sum -= b.Sum
		a.Count -= b.Count
	}
	return *a
}

func histSum(s obs.Snapshot, name string) *obs.HistogramSnapshot {
	h := &obs.HistogramSnapshot{}
	f := s.Family(name)
	if f == nil {
		return h
	}
	for _, se := range f.Series {
		if se.Hist == nil {
			continue
		}
		if h.Counts == nil {
			*h = *se.Hist
			h.Bounds = slices.Clone(se.Hist.Bounds)
			h.Counts = slices.Clone(se.Hist.Counts)
			continue
		}
		_ = h.Merge(se.Hist) // all series of one family share their bounds
	}
	return h
}

// counterDelta is the change of one labelled series of a counter family.
func counterDelta(before, after obs.Snapshot, name, label string) float64 {
	value := func(s obs.Snapshot) float64 {
		if f := s.Family(name); f != nil {
			for _, se := range f.Series {
				if len(se.LabelValues) == 1 && se.LabelValues[0] == label {
					return se.Value
				}
			}
		}
		return 0
	}
	return value(after) - value(before)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
