package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/keypool"
)

// fastSpec is a small, quick session: 3 terminals over an in-process
// bus. The erasure sits in the paper's operating regime — at low loss the
// leave-one-out estimator certifies almost nothing (Eve's stand-in heard
// nearly everything) and rounds abort.
func fastSpec(seed int64) SessionSpec {
	return SessionSpec{
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    64,
		PayloadBytes: 16,
		Rotate:       true,
		Seed:         seed,
		LowWater:     256,
		TargetDepth:  512,
		Timeout:      10 * time.Second,
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMultiSessionConvergenceAndRefill is the deterministic service test:
// N concurrent sessions with fixed seeds, every session converges (the
// engine's agreement check runs inside every refresh batch), pools fill,
// and after draws push a pool below its watermark the background
// refresher restores the depth without any draw blocking on protocol
// rounds.
func TestMultiSessionConvergenceAndRefill(t *testing.T) {
	const sessions = 6
	sv := New(Config{MaxSessions: sessions, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())

	var ss []*Session
	for i := 0; i < sessions; i++ {
		spec := fastSpec(int64(1000 + i*17))
		spec.Name = fmt.Sprintf("grp-%d", i)
		s, err := sv.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range ss {
		if err := s.WaitReady(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range ss {
		m := s.Metrics()
		if m.Pool.Available < s.Spec().TargetDepth {
			t.Fatalf("session %d: pool %d below target %d after ready",
				s.ID, m.Pool.Available, s.Spec().TargetDepth)
		}
		if m.Productive == 0 || m.SecretBytes == 0 {
			t.Fatalf("session %d: no productive rounds (%+v)", s.ID, m)
		}
	}

	// Drain each pool below the watermark; the background refresher must
	// restore the target depth.
	for _, s := range ss {
		avail := s.Pool().Available()
		if _, err := s.Draw(avail - s.Spec().LowWater/2); err != nil {
			t.Fatalf("session %d: draw: %v", s.ID, err)
		}
	}
	for _, s := range ss {
		s := s
		waitFor(t, 30*time.Second, fmt.Sprintf("session %d pool recovery", s.ID), func() bool {
			return s.Pool().Available() >= s.Spec().TargetDepth
		})
		if st := s.Pool().Stats(); st.LowWaterHits == 0 {
			t.Fatalf("session %d: refill without a low-water hit? %+v", s.ID, st)
		}
		if m := s.Metrics(); m.Refreshes < 2 {
			t.Fatalf("session %d: pool recovered without a second refresh batch (%+v)", s.ID, m)
		}
	}
}

// TestSameSeedSameKeyStream pins the determinism contract: two sessions
// with identical specs and seeds produce identical key streams, byte for
// byte, regardless of scheduling.
func TestSameSeedSameKeyStream(t *testing.T) {
	sv := New(Config{MaxSessions: 4})
	defer sv.Shutdown(context.Background())
	spec := fastSpec(4242)
	a, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	ka, err := a.Draw(96)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Draw(96)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatal("same spec and seed produced different key streams")
	}
}

// TestAdmissionBackpressure exercises the bounded runner pool: beyond
// MaxSessions sessions queue, beyond MaxQueued creation fails fast, and a
// closed session's slot is reclaimed by a queued one.
func TestAdmissionBackpressure(t *testing.T) {
	sv := New(Config{MaxSessions: 2, MaxQueued: 2, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())

	var ss []*Session
	for i := 0; i < 4; i++ {
		s, err := sv.Create(fastSpec(int64(300 + i)))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ss = append(ss, s)
	}
	if _, err := sv.Create(fastSpec(99)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("5th create: %v, want ErrSaturated", err)
	}
	waitFor(t, 15*time.Second, "two running sessions", func() bool {
		m := sv.Metrics()
		return m.Running == 2 && m.Queued == 2
	})
	// Freeing one slot lets a queued session start.
	if err := sv.Close(ss[0].ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "queued session promotion", func() bool {
		m := sv.Metrics()
		return m.Running == 2 && m.Queued == 1
	})
	if _, err := sv.Get(ss[0].ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("closed session still addressable: %v", err)
	}
}

// TestGracefulShutdownUnderTraffic is the shutdown/cancellation race
// test: draws hammer the pools from several goroutines while the whole
// daemon shuts down. Run under -race in CI. After Shutdown every pool is
// zeroized (draws fail with keypool.ErrClosed) and no service goroutine
// survives.
func TestGracefulShutdownUnderTraffic(t *testing.T) {
	before := runtime.NumGoroutine()
	sv := New(Config{MaxSessions: 4, DrainTimeout: 5 * time.Second})
	var ss []*Session
	for i := 0; i < 4; i++ {
		s, err := sv.Create(fastSpec(int64(7000 + i*13)))
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range ss {
		if err := s.WaitReady(ctx); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = s.Draw(16) // exhausted/closed errors are expected
				time.Sleep(time.Millisecond)
			}
		}(s)
	}
	time.Sleep(20 * time.Millisecond) // let draws overlap refreshes

	sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer scancel()
	if err := sv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	for _, s := range ss {
		if st := s.State(); st != StateClosed {
			t.Fatalf("session %d state %v after shutdown", s.ID, st)
		}
		if _, err := s.Draw(1); !errors.Is(err, keypool.ErrClosed) {
			t.Fatalf("session %d: draw after shutdown: %v, want ErrClosed", s.ID, err)
		}
	}
	if _, err := sv.Create(fastSpec(1)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("create after shutdown: %v", err)
	}
	waitForGoroutines(t, before)
}

// TestRefreshFailureMarksSessionFailed: a channel so lossy that every
// round aborts must move the session to StateFailed after the failure
// limit instead of spinning the bus forever.
func TestRefreshFailureMarksSessionFailed(t *testing.T) {
	sv := New(Config{MaxSessions: 1, DrainTimeout: time.Second})
	defer sv.Shutdown(context.Background())
	spec := fastSpec(5)
	spec.Erasure = 0.999 // every terminal misses every x-packet: rounds abort
	spec.XPerRound = 4
	s, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err == nil {
		t.Fatal("session became ready on a dead channel")
	}
	if st := s.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if m := s.Metrics(); m.RefreshErrors < maxRefreshFailures || m.LastError == "" {
		t.Fatalf("metrics = %+v", m)
	}
	// Dead sessions leave the registry (no unbounded accumulation in a
	// long-lived daemon) and are accounted.
	waitFor(t, 10*time.Second, "failed session removal", func() bool {
		_, err := sv.Get(s.ID)
		return errors.Is(err, ErrNotFound)
	})
	if m := sv.Metrics(); m.Failed != 1 || m.Removed != 1 {
		t.Fatalf("service metrics = %+v", m)
	}
}

// TestQueuedCreateCloseCycle is the regression for a Create deadlock:
// sessions closed while still queued must release their queue slot
// immediately, so create/close cycles against a saturated runner pool
// neither wedge the daemon nor leak registry entries.
func TestQueuedCreateCloseCycle(t *testing.T) {
	sv := New(Config{MaxSessions: 1, MaxQueued: 1, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	if _, err := sv.Create(fastSpec(1)); err != nil { // occupies the only runner
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "first session running", func() bool {
		return sv.Metrics().Running == 1
	})
	for i := 0; i < 20; i++ {
		s, err := sv.Create(fastSpec(int64(100 + i)))
		if err != nil {
			t.Fatalf("cycle %d: create: %v", i, err)
		}
		if err := sv.Close(s.ID); err != nil {
			t.Fatalf("cycle %d: close: %v", i, err)
		}
	}
	// The queue slot is free again: one more queued admit works, the one
	// after that is real saturation.
	if _, err := sv.Create(fastSpec(777)); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Create(fastSpec(778)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow create: %v, want ErrSaturated", err)
	}
	if got := len(sv.Sessions()); got != 2 {
		t.Fatalf("registry holds %d sessions, want 2", got)
	}
}

// TestQueuedSessionsStartInOrder pins Create's FIFO promise: with one run
// slot, queued sessions start in the order they were created.
func TestQueuedSessionsStartInOrder(t *testing.T) {
	sv := New(Config{MaxSessions: 1, MaxQueued: 3, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	ss := make([]*Session, 4) // A runs; B, C, D queue
	for i := range ss {
		var err error
		if ss[i], err = sv.Create(fastSpec(int64(200 + i))); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ { // closing A starts B, closing B starts C
		if i > 0 {
			if err := sv.Close(ss[i-1].ID); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 15*time.Second, fmt.Sprintf("session %d running", ss[i].ID), func() bool {
			return ss[i].State() == StateRunning
		})
		for _, s := range ss[i+1:] {
			if st := s.State(); st != StateQueued {
				t.Fatalf("session %d is %v while session %d runs; want queued", s.ID, st, ss[i].ID)
			}
		}
	}
}

// TestNoGoroutineOutlivesSession: a session's run slot is a goroutine
// that exits with the last session it ran, so once every session has
// closed the daemon holds no goroutine it did not hold before the first
// Create — without waiting for Shutdown.
func TestNoGoroutineOutlivesSession(t *testing.T) {
	sv := New(Config{MaxSessions: 4, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	before := runtime.NumGoroutine()

	ss := make([]*Session, 6) // four run, two queue
	for i := range ss {
		var err error
		if ss[i], err = sv.Create(fastSpec(int64(500 + i))); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ready := func(ss []*Session) {
		t.Helper()
		for _, s := range ss {
			if err := s.WaitReady(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	ready(ss[:4])
	for _, s := range ss[:2] { // frees two slots for the queued pair
		s.Close()
	}
	ready(ss[4:])
	for _, s := range ss[2:] {
		s.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines after every session closed, %d before the first Create\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServe32UDPSessions is the acceptance bar: >= 32 concurrent group
// sessions over loopback UDP, background keypool refresh observed (depth
// recovers after draws), graceful shutdown, no goroutines leaked.
func TestServe32UDPSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP session fan-out skipped in -short")
	}
	const sessions = 32
	before := runtime.NumGoroutine()
	sv := New(Config{MaxSessions: sessions, DrainTimeout: 10 * time.Second})

	var ss []*Session
	for i := 0; i < sessions; i++ {
		spec := SessionSpec{
			Name:         fmt.Sprintf("udp-%d", i),
			Terminals:    3,
			Erasure:      0.45,
			XPerRound:    48,
			PayloadBytes: 16,
			Rotate:       true,
			UDP:          true,
			Seed:         int64(9000 + i*31),
			LowWater:     192,
			TargetDepth:  384,
			Observe:      i%8 == 0, // a few wire-level eavesdroppers in the mix
			Timeout:      20 * time.Second,
		}
		s, err := sv.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, s := range ss {
		if err := s.WaitReady(ctx); err != nil {
			t.Fatalf("session %d: %v", s.ID, err)
		}
	}
	if m := sv.Metrics(); m.Running != sessions {
		t.Fatalf("running = %d, want %d", m.Running, sessions)
	}

	// Drain below the watermark everywhere, then watch every pool recover.
	for _, s := range ss {
		if _, err := s.Draw(s.Pool().Available() - s.Spec().LowWater/2); err != nil {
			t.Fatalf("session %d draw: %v", s.ID, err)
		}
	}
	for _, s := range ss {
		s := s
		waitFor(t, 60*time.Second, fmt.Sprintf("session %d UDP pool recovery", s.ID), func() bool {
			return s.Pool().Available() >= s.Spec().TargetDepth
		})
	}
	for _, s := range ss {
		if m := s.Metrics(); m.Refreshes < 2 || m.Pool.LowWaterHits == 0 {
			t.Fatalf("session %d: background refresh not observed (%+v)", s.ID, m)
		}
	}

	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer scancel()
	if err := sv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count returns to (near) the
// pre-test baseline, allowing runtime background goroutines some slack.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}
