package keystream

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// injectorFleet wires an Injector around every per-block bus a stream
// creates, applying the fleet's current fault set to each new block. The
// engine closes each block's bus (the injector) at block teardown, which
// releases that block's stall gates — mirroring how a SIGSTOP'd process
// stops mattering once its session is torn down.
type injectorFleet struct {
	mu    sync.Mutex
	slow  map[int]time.Duration
	stall map[int]bool
	made  int
}

func newInjectorFleet() *injectorFleet {
	return &injectorFleet{slow: make(map[int]time.Duration), stall: make(map[int]bool)}
}

func (fl *injectorFleet) slowMember(id int, d time.Duration) {
	fl.mu.Lock()
	fl.slow[id] = d
	fl.mu.Unlock()
}

func (fl *injectorFleet) stallMember(id int) {
	fl.mu.Lock()
	fl.stall[id] = true
	fl.mu.Unlock()
}

func (fl *injectorFleet) newBus(erasure float64) func(block, blockSeed int64, inbox int) (transport.Bus, error) {
	return func(block, blockSeed int64, inbox int) (transport.Bus, error) {
		in := NewInjector(transport.NewChanBus(erasure, blockSeed, inbox))
		fl.mu.Lock()
		for id, d := range fl.slow {
			in.SlowMember(id, d)
		}
		for id, st := range fl.stall {
			if st {
				in.StallMember(id)
			}
		}
		fl.made++
		fl.mu.Unlock()
		return in, nil
	}
}

// stallCfg is the stall suite's protocol shape: a short report deadline
// so an unresponsive member costs bounded time before memberHealth stops
// waiting for it. The leader is pinned (Rotate off): a slowed or stalled
// LEADER slows its blocks by construction — determinism says those bytes
// come from that leader's rounds — so the resilience property under test
// is about faulty non-leader members.
func stallCfg(seed int64) Config {
	cfg := protoCfg(seed)
	cfg.Rotate = false
	cfg.PayloadBytes = 64 // fewer rounds per block: stall overhead amortizes honestly
	cfg.AckWait = 5 * time.Millisecond
	cfg.AckSlack = time.Millisecond
	return cfg
}

func timedRead(t *testing.T, cfg Config, nbytes int) ([]byte, time.Duration, Stats) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, nbytes)
	start := time.Now()
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	return buf, time.Since(start), s.Stats()
}

// TestStreamSlowMemberKeepsDelivering: one member answering 10x slower
// than the report deadline does not gate byte production — the stream
// keeps delivering the exact reference bytes, and total throughput
// degrades by less than 2x, because memberHealth stops waiting for the
// laggard after a bounded number of missed deadlines. The baseline runs
// the same members over the same injector bus with no fault, so both
// reads time one derivation path.
func TestStreamSlowMemberKeepsDelivering(t *testing.T) {
	cfg := stallCfg(303)
	nbytes := 24 * cfg.BlockSize
	healthy := cfg
	healthy.NewBus = newInjectorFleet().newBus(cfg.Erasure)
	want, baseline, _ := timedRead(t, healthy, nbytes)
	if !bytes.Equal(want, readRef(t, cfg, 24)) {
		t.Fatal("the un-faulted bus stream differs from the reference bytes")
	}

	fl := newInjectorFleet()
	fl.slowMember(1, 10*cfg.AckWait) // 10x the deadline: every report misses
	slowed := cfg
	slowed.NewBus = fl.newBus(cfg.Erasure)
	got, dur, st := timedRead(t, slowed, nbytes)

	if !bytes.Equal(got, want) {
		t.Fatal("slow member changed the stream's bytes")
	}
	if st.SkippedWaits == 0 {
		t.Fatalf("health never stopped waiting for the slow member: %+v", st)
	}
	// The acceptance bound, with an absolute grace floor so scheduler
	// noise on tiny baselines cannot flake the ratio.
	limit := 2*baseline + 100*time.Millisecond
	if dur >= limit {
		t.Fatalf("slowed read took %v, baseline %v (limit %v): degradation >= 2x", dur, baseline, limit)
	}
	t.Logf("baseline %v, one member 10x-slowed %v (%.2fx), stats %+v",
		baseline, dur, float64(dur)/float64(baseline), st)
}

// TestStreamStalledMemberMidStream: a member that stops answering
// entirely mid-stream (its sends gate forever, its inbox overflows —
// the SIGSTOP shape) does not stop the stream. Bytes before and after
// the stall match the reference derivation, and closing the stream
// leaks no goroutines even with a member permanently wedged in a send.
func TestStreamStalledMemberMidStream(t *testing.T) {
	cfg := stallCfg(404)
	const nblocks = 16
	want := readRef(t, cfg, nblocks)

	before := runtime.NumGoroutine()
	fl := newInjectorFleet()
	run := cfg
	run.NewBus = fl.newBus(cfg.Erasure)
	s, err := New(run)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(want))
	half := len(got) / 2
	if _, err := io.ReadFull(s, got[:half]); err != nil {
		t.Fatalf("pre-stall read: %v", err)
	}
	fl.stallMember(2) // every block bus from here on wedges member 2
	if _, err := io.ReadFull(s, got[half:]); err != nil {
		t.Fatalf("post-stall read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stalled member changed the stream's bytes")
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked after close: %d before, %d after\n%s", before, g, buf[:n])
	}
	t.Logf("stall stats: %+v", st)
}
