package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/keystream"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
	}{
		{300000, "p99"}, // the cold-range count is far below, the draw count far above
		{1000, "p99"},   // exactly 10 samples beyond p99
		{999, "p90"},
		{540, "p90"},
		{100, "p90"},
		{99, "p50"},
		{1, "p50"},
	} {
		if _, got := tailPercentile(tc.n); got != tc.label {
			t.Errorf("tailPercentile(%d) = %s, want %s", tc.n, got, tc.label)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3.1, 1.2, 5.5, 2.0, 4.4, 9.9, 7.3, 6.6, 8.8, 0.5}, [3]float64{1.8, 4.95, 7.675}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(tc.in)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 40},
		{start: 30, end: 60},  // overlaps the first: [10, 60) counts once
		{start: 50, end: 55},  // inside the union already
		{start: 90, end: 120}, // only [90, 100) lies inside the parent
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("selfTime = %d, want 40 (100 - 50 - 10)", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

// TestLedgerAddsUp: per request the three self times tile the client.op
// span, and the ledger's self-time p50s plus the unattributed time equal
// the client.op p50.
func TestLedgerAddsUp(t *testing.T) {
	var spans []span
	for r := uint64(1); r <= 9; r++ {
		o := int64(r) * 1000
		spans = append(spans,
			span{req: r, layer: layerClient, start: o, end: o + 100 + int64(r)},
			span{req: r, layer: layerGate, start: o + 10, end: o + 80},
			// Two overlapping /ctl spans (a retried RPC), one running past
			// its parent: only the covered part inside gate.backend counts.
			span{req: r, layer: layerCtl, start: o + 20, end: o + 50},
			span{req: r, layer: layerCtl, start: o + 40, end: o + 90 + int64(r)},
		)
	}
	spans = append(spans, span{req: 99, layer: layerGate, start: 0, end: 5}) // no client.op: dropped
	client, self := requestTimes(spans)
	if len(client) != 9 {
		t.Fatalf("%d requests, want 9", len(client))
	}
	for i := range client {
		if sum := self[layerClient][i] + self[layerGate][i] + self[layerCtl][i]; sum != client[i] {
			t.Fatalf("request %d: self times sum to %d, client.op is %d", i, sum, client[i])
		}
	}
	lg := newLedger("synthetic", spans, nil)
	sum := lg.UnattributedUS
	for _, v := range lg.SelfUS {
		sum += v
	}
	if math.Abs(sum-lg.ClientOpUS) > 1e-9 {
		t.Fatalf("self times + unattributed = %g, client.op p50 = %g", sum, lg.ClientOpUS)
	}
	if want := 0.060; math.Abs(lg.SelfUS["cluster.ctl_us_p50"]-want) > 1e-9 {
		t.Fatalf("cluster.ctl p50 = %g us, want %g", lg.SelfUS["cluster.ctl_us_p50"], want)
	}
}

const syntheticTraces = `File: bench
Type: cpu
Duration: 1s, Total samples = 1s (100%)
-----------+-------------------------------------------------------
thinaird_shard:  0
     300ms   math/rand.(*Rand).Int31n
             math/rand.(*Rand).Intn
             repro/internal/packet.RandomPayload (inline)
             repro/internal/packet.NewBatch
             repro/internal/keystream.(*BlockContext).exchange
-----------+-------------------------------------------------------
     200ms   repro/internal/gf.gf16AddMul4AVX2
             repro/internal/gf.(*Field[go.shape.uint16]).AddMulSlices
             repro/internal/mds.CompleteFromEquations[go.shape.uint16]
-----------+-------------------------------------------------------
     150ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   runtime.scanobject
             runtime.gcAssistAlloc1
             runtime.mallocgc
             repro/internal/gf.Symbols16
-----------+-------------------------------------------------------
     100ms   internal/runtime/syscall.Syscall6
             syscall.Syscall
             syscall.write
             internal/poll.(*FD).Write
             net.(*conn).Write
             repro/internal/gate.(*agent).write
-----------+-------------------------------------------------------
      80ms   repro/internal/obs.(*Histogram).Observe
             repro/internal/gate.(*agent).handle
-----------+-------------------------------------------------------
      70ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
      50ms   encoding/json.(*encodeState).marshal
             main.writeJSON
-----------+-------------------------------------------------------
`

func TestBucketTraces(t *testing.T) {
	shares, n, err := bucketTraces(strings.NewReader(syntheticTraces))
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("%d stacks, want 8", n)
	}
	want := map[string]float64{
		"packet":        30, // math/rand under packet.RandomPayload
		"gf":            20,
		"gc":            20, // background marking, and an assist under gf
		"net":           10,
		"gate":          8, // obs has no bucket: its caller's module counts
		"runtime_other": 7,
		"other":         5,
	}
	total := 0.0
	for _, b := range cpuBuckets {
		total += shares[b]
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("cpu.%s = %g%%, want %g%%", b, shares[b], want[b])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %g%%", total)
	}
}

func TestVerifierRejectsAFlippedByte(t *testing.T) {
	cfg := keystream.Config{Terminals: 3, XPerRound: 64, PayloadBytes: 16, Erasure: 0.3, Seed: 7, BlockSize: 512}
	ref := make([]byte, 2*cfg.BlockSize)
	for b := range int64(2) {
		if err := keystream.ReferenceBlock(cfg, 3+b, ref[b*512:(b+1)*512]); err != nil {
			t.Fatal(err)
		}
	}
	off := int64(3*512 + 100)
	got := slices.Clone(ref[100:700]) // a range straddling the block boundary
	if err := verifyRanges(cfg, []rangeSum{sumRange(off, got)}); err != nil {
		t.Fatalf("a correct range was rejected: %v", err)
	}
	got[437] ^= 0x01
	if err := verifyRanges(cfg, []rangeSum{sumRange(off, got)}); err == nil {
		t.Fatal("a range with one flipped byte was accepted")
	}
}

func TestVerifierRejectsARepeatedDraw(t *testing.T) {
	key := func(seed byte) []byte {
		k := make([]byte, drawBytes)
		for i := range k {
			k[i] = seed + byte(i)
		}
		return k
	}
	l := newDrawLoad([]uint64{1}, 2, false)
	l.note(0, key(1))
	l.note(1, key(2))
	l.note(0, key(3))
	if err := l.verify(inputs{}); err != nil {
		t.Fatalf("distinct keys were rejected: %v", err)
	}
	l.note(1, key(2)) // served twice
	if err := l.verify(inputs{}); err == nil {
		t.Fatal("a key served twice was accepted")
	}

	l = newDrawLoad([]uint64{1}, 1, false)
	l.note(0, make([]byte, drawBytes))
	if err := l.verify(inputs{}); err == nil {
		t.Fatal("an all-zero key was accepted")
	}
	l = newDrawLoad([]uint64{1}, 1, false)
	l.note(0, key(1)[:31])
	if err := l.verify(inputs{}); err == nil {
		t.Fatal("a short key was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", scale(1.01), true, "unchanged"},
		{"slower throughput", scale(0.85), true, "worse"},
		{"faster throughput", scale(1.2), true, "better"},
		{"lower latency", scale(0.8), false, "better"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130}, true, "unresolved"},
		{"noisy but dominated", []float64{200, 400, 250, 350, 300, 220, 380}, true, "better"},
	} {
		if got := compareRuns(base, tc.b, tc.higher, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads this
// package runs, with the same reasons, and the metrics it gates.
func TestBenchmarkJSON(t *testing.T) {
	spec := benchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := spec.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("BENCHMARK.json workload %d = %q (%q), want %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
	}
	var gated []string
	for _, m := range spec.EndToEnd {
		gated = append(gated, m.Name)
	}
	if !slices.Equal(slices.Sorted(slices.Values(gated)), slices.Sorted(slices.Values(endToEnd))) {
		t.Errorf("BENCHMARK.json gates %v, untraced runs report %v", gated, endToEnd)
	}
}

func benchmarkSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics fails unless a run's last line carries exactly the
// listed metrics, each with its listed unit and a finite value.
func checkMetrics(t *testing.T, line contract, want []specMetric) {
	t.Helper()
	if len(line.Metrics) != len(want) {
		t.Errorf("%d metrics on the last line, BENCHMARK.json lists %d", len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %g", m.Name, got.Value)
		}
	}
}

// TestBenchSmoke runs every workload end to end with one-second windows,
// then one traced run, and checks outputs, verification and the metric
// lists against BENCHMARK.json.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload against an in-process cluster")
	}
	spec := benchmarkSpec(t)
	short := func(wl *workload) options {
		return options{workload: wl, seed: 1, window: time.Second, warmup: 500 * time.Millisecond, setupReps: 1}
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rec, err := runWorkload(short(wl))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			checkMetrics(t, contractLine(rec, false), spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if rec.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, rec.Metrics[m.Name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		opts := short(workloads[0])
		opts.trace, opts.traceDir = true, t.TempDir()
		rec, err := runWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct {
			t.Fatalf("verification failed: %v", rec.Errors)
		}
		checkMetrics(t, contractLine(rec, true), spec.PerLayer)
		dir := filepath.Join(opts.traceDir, opts.workload.name)
		for _, f := range []string{"spans.jsonl", "ledger.json", "cpu-" + opts.workload.name + ".pprof"} {
			if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s missing or empty: %v", f, err)
			}
		}
		b, err := os.ReadFile(filepath.Join(dir, "ledger.json"))
		if err != nil {
			t.Fatal(err)
		}
		var lg ledger
		if err := json.Unmarshal(b, &lg); err != nil {
			t.Fatal(err)
		}
		sum, cpu := lg.UnattributedUS, 0.0
		for _, v := range lg.SelfUS {
			sum += v
		}
		for _, v := range lg.CPUShares {
			cpu += v
		}
		if lg.Requests == 0 || math.Abs(sum-lg.ClientOpUS) > 1e-6 {
			t.Errorf("ledger: %d requests, layers + unattributed = %g us, client.op p50 = %g us", lg.Requests, sum, lg.ClientOpUS)
		}
		if math.Abs(cpu-100) > 1 {
			t.Errorf("cpu shares sum to %g%%", cpu)
		}
	})
}
