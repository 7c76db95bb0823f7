package transport

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSessionsWithObservers is the concurrency stress for the
// asynchronous runtime: several full multi-node sessions run
// simultaneously, each over its own ChanBus with a wire-level Observer
// goroutine attached (the cmd/thinair-keys deployment shape). Run under
// -race in CI, it guards the bus fan-out, the per-node goroutines and the
// observer's ingest path against data races; functionally it checks that
// every session still agrees on a secret and that every observer's
// certificate stays coherent.
func TestConcurrentSessionsWithObservers(t *testing.T) {
	const (
		sessions = 4
		n        = 3
	)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			bus := NewChanBus(0.4, int64(100+s), DefaultInbox)
			defer bus.Close()

			obsEp, err := bus.Endpoint(n)
			if err != nil {
				errs <- err
				return
			}
			obs := NewObserver(uint32(2000 + s))
			obsCtx, obsCancel := context.WithCancel(context.Background())
			obsDone := make(chan struct{})
			go func() {
				obs.Run(obsCtx, obsEp, time.Second)
				close(obsDone)
			}()

			cfg := baseNodeConfig(n)
			cfg.Session = uint32(2000 + s)
			cfg.Seed = int64(500 + s*101)
			results, err := RunGroup(context.Background(), bus, cfg, nil)
			obsCancel()
			<-obsDone
			if err != nil {
				errs <- err
				return
			}
			for i := 1; i < n; i++ {
				if string(results[i].Secret) != string(results[0].Secret) {
					t.Errorf("session %d: node %d secret differs", s, i)
				}
			}
			if obs.UnknownDims > obs.SecretDims {
				t.Errorf("session %d: observer certificate out of range (%d/%d)",
					s, obs.UnknownDims, obs.SecretDims)
			}
			if obs.SecretDims > 0 {
				if r := obs.Reliability(); r < 0 || r > 1 {
					t.Errorf("session %d: reliability = %v", s, r)
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestObserverShutdownDuringTraffic cancels the observer mid-session and
// closes the bus while nodes may still be transmitting — the teardown
// path a long-running key daemon exercises on every session boundary.
func TestObserverShutdownDuringTraffic(t *testing.T) {
	const n = 3
	bus := NewChanBus(0.2, 31, DefaultInbox)
	defer bus.Close()
	obsEp, err := bus.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(777)
	obsCtx, obsCancel := context.WithCancel(context.Background())
	obsDone := make(chan struct{})
	go func() {
		obs.Run(obsCtx, obsEp, time.Second)
		close(obsDone)
	}()

	cfg := baseNodeConfig(n)
	done := make(chan error, 1)
	go func() {
		_, err := RunGroup(context.Background(), bus, cfg, nil)
		done <- err
	}()
	// Cancel the observer while the session is (very likely) mid-flight;
	// the session itself must be unaffected.
	time.Sleep(2 * time.Millisecond)
	obsCancel()
	<-obsDone
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
