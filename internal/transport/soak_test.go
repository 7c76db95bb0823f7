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

// TestUDPSoakMultiSession is the UDP-bus soak: many concurrent loopback
// hubs, each running several sequential refresh batches (FirstRound
// advancing, endpoints reused — the daemon shape) under real packet loss
// with a wire-level observer attached. Its purpose is flushing
// loopback-socket lifecycle bugs the short unit tests cannot reach:
// stranded client read goroutines, unacked ARQ retransmit storms after
// teardown, Recv channels that never close. Skipped under -short; set
// THINAIR_SOAK=1 for the long CI variant.
func TestUDPSoakMultiSession(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP soak skipped in -short")
	}
	sessions, batches := 8, 3
	if os.Getenv("THINAIR_SOAK") != "" {
		sessions, batches = 32, 10
	}
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			const n = 3
			// Alternate loss rates so some sessions run with heavy loss.
			p := 0.45
			if s%2 == 1 {
				p = 0.6
			}
			bus, err := NewUDPBus(p, int64(4000+s*13))
			if err != nil {
				fail("session %d: %v", s, err)
				return
			}
			defer bus.Close()

			obsEp, err := bus.Endpoint(n)
			if err != nil {
				fail("session %d: observer endpoint: %v", s, err)
				return
			}
			obs := NewObserver(uint32(100 + s))
			obsCtx, obsCancel := context.WithCancel(context.Background())
			obsDone := make(chan struct{})
			go func() {
				obs.Run(obsCtx, obsEp, 5*time.Second)
				close(obsDone)
			}()

			eps := make([]Endpoint, n)
			for i := range eps {
				if eps[i], err = bus.Endpoint(i); err != nil {
					obsCancel()
					<-obsDone
					fail("session %d: endpoint %d: %v", s, i, err)
					return
				}
			}
			cfg := NodeConfig{
				Config: core.Config{
					Terminals: n, XPerRound: 48, PayloadBytes: 8,
					Rounds: 1, Rotate: true, Seed: int64(700 + s*101),
				},
				Session: uint32(100 + s),
				Timeout: 30 * time.Second,
			}
			for b := 0; b < batches; b++ {
				cfg.FirstRound = b
				// RunGroupOn checks all-node agreement internally.
				if _, err := RunGroupOn(context.Background(), eps, cfg, nil); err != nil {
					obsCancel()
					<-obsDone
					fail("session %d batch %d: %v", s, b, err)
					return
				}
			}
			obsCancel()
			<-obsDone
			if obs.UnknownDims > obs.SecretDims {
				fail("session %d: observer certificate out of range (%d/%d)",
					s, obs.UnknownDims, obs.SecretDims)
			}
			// Dedup state must stay bounded by the participant count
			// (n terminals + observer): each sender gets one fixed-size
			// sliding window, never one entry per control frame. This is
			// the regression assertion for the old unbounded `seen` maps.
			if got := bus.dedupSenders(); got > n+1 {
				fail("session %d: hub dedup state grew to %d windows for %d senders", s, got, n+1)
			}
			for i, ep := range eps {
				if got := ep.(*udpEndpoint).dedupSenders(); got > n+1 {
					fail("session %d: endpoint %d dedup state grew to %d windows for %d senders", s, i, got, n+1)
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
