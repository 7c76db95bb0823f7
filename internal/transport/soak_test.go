package transport

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestUDPSoakMultiSession is the UDP-bus soak in the shape a keystream
// session runs its blocks: many concurrent sessions, each deriving
// several blocks in turn, every block on a fresh loopback bus with a
// wire-level observer tapped before the first frame, closed once the
// block is done. The rounds run under real packet loss. Its purpose is
// flushing loopback-socket lifecycle bugs the short unit tests cannot
// reach: stranded client read goroutines, unacked ARQ retransmit storms
// after teardown, Recv channels that never close, buses that do not let
// go of their endpoints. Skipped under -short; set THINAIR_SOAK=1 for
// the long CI variant.
func TestUDPSoakMultiSession(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP soak skipped in -short")
	}
	sessions, blocks := 8, 3
	if os.Getenv("THINAIR_SOAK") != "" {
		sessions, blocks = 32, 10
	}
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Alternate loss rates so some sessions run with heavy loss.
			p := 0.45
			if s%2 == 1 {
				p = 0.6
			}
			for b := 0; b < blocks; b++ {
				if err := soakBlock(p, int64(4000+s*13+b), uint32(100+s*blocks+b)); err != nil {
					fail("session %d block %d: %v", s, b, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every bus, endpoint and observer is down: the goroutine count must
	// return to the pre-soak baseline or sockets/readers leaked.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	nn := runtime.Stack(buf, true)
	t.Fatalf("soak leaked goroutines: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:nn])
}

// soakBlock runs one block: a fresh UDP bus, an observer on its tap, a
// multi-round RunGroup over three terminals, then teardown. It checks
// the observer's certificate and that per-sender dedup state stays
// bounded by the participant count while the bus is up.
func soakBlock(erasure float64, seed int64, session uint32) error {
	const n = 3
	bus, err := NewUDPBus(erasure, seed)
	if err != nil {
		return err
	}
	defer bus.Close()
	tap, err := bus.Endpoint(n)
	if err != nil {
		return fmt.Errorf("observer endpoint: %w", err)
	}
	obs := NewObserver(session)
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for env := range tap.Recv() {
			obs.Ingest(env)
		}
		obs.Finish()
	}()
	cfg := NodeConfig{
		Config: core.Config{
			Terminals: n, XPerRound: 48, PayloadBytes: 8,
			Rounds: 3, Rotate: true, Seed: seed,
		},
		Session: session,
		Timeout: 30 * time.Second,
	}
	// RunGroup checks all-node agreement internally.
	_, err = RunGroup(context.Background(), bus, cfg, nil)
	// Dedup state must stay bounded by the participant count (n
	// terminals + observer): each sender gets one fixed-size sliding
	// window, never one entry per control frame. This is the regression
	// assertion for the old unbounded `seen` maps.
	if got := bus.dedupSenders(); got > n+1 && err == nil {
		err = fmt.Errorf("hub dedup state grew to %d windows for %d senders", got, n+1)
	}
	bus.mu.Lock()
	eps := append([]*udpEndpoint(nil), bus.eps...)
	bus.mu.Unlock()
	for i, ep := range eps {
		if got := ep.dedupSenders(); got > n+1 && err == nil {
			err = fmt.Errorf("endpoint %d dedup state grew to %d windows for %d senders", i, got, n+1)
		}
	}
	bus.Close()
	<-obsDone // the tap's Recv closes with the bus
	if err != nil {
		return err
	}
	if obs.UnknownDims > obs.SecretDims {
		return fmt.Errorf("observer certificate out of range (%d/%d)", obs.UnknownDims, obs.SecretDims)
	}
	return nil
}
