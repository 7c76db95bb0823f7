package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/keypool"
	"repro/internal/service"
)

// workerBehind digs the in-process Worker out of a recorded proc so
// tests can make things happen behind the coordinator's back.
func workerBehind(t *testing.T, p WorkerProc) *Worker {
	t.Helper()
	ip, ok := p.(*inprocProc)
	if !ok {
		t.Fatalf("proc %T is not in-process", p)
	}
	return ip.worker
}

// TestCoordinatorReconcileLostSession: a session that disappears on a
// live worker (closed or failed worker-side, behind the coordinator's
// back) is marked failed by the reconcile pass — not reassigned, since
// a deterministic failure would just recur.
func TestCoordinatorReconcileLostSession(t *testing.T) {
	rs := newRecordingSpawner()
	cfg := testConfig(rs.Spawn)
	cfg.Workers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	info, err := c.Create(fastSpec(88))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, fastSpec(88).TargetDepth)

	// Kill the session worker-side only; the worker stays healthy.
	w := workerBehind(t, rs.current(0))
	if err := w.Service().Close(info.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "reconcile to mark the session failed", func() bool {
		si, err := c.Session(ctx, info.ID)
		return err == nil && si.State == sessionFailed
	})
	// The registry's verdict is "failed", never the closed shape a caller
	// could mistake for their own graceful close.
	if _, err := c.Draw(ctx, info.ID, 8); !errors.Is(err, service.ErrFailed) {
		t.Fatalf("draw from reconciled-away session: %v, want service.ErrFailed", err)
	}
	if _, err := c.Draw(ctx, info.ID, 8); errors.Is(err, keypool.ErrClosed) {
		t.Fatal("failed session still reports the graceful-close sentinel")
	}
	if m := c.Metrics(); m.Failed == 0 {
		t.Fatalf("failure not counted: %+v", m)
	}
	// Closing a failed session just drops the registry entry.
	if err := c.CloseSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session(ctx, info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("session still present after close: %v", err)
	}
}

// TestCoordinatorDrawDetectsLostSession: a draw that races ahead of the
// reconcile pass hits the worker's 404 and flips the registry entry to
// failed immediately.
func TestCoordinatorDrawDetectsLostSession(t *testing.T) {
	rs := newRecordingSpawner()
	cfg := testConfig(rs.Spawn)
	cfg.Workers = 1
	cfg.HeartbeatEvery = time.Hour // reconcile never runs; only Draw can notice
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	info, err := c.Create(fastSpec(89))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, fastSpec(89).TargetDepth)
	w := workerBehind(t, rs.current(0))
	if err := w.Service().Close(info.ID); err != nil {
		t.Fatal(err)
	}
	// Inside the settling grace the miss is retryable — a draw racing a
	// just-landed assignment must not condemn the session.
	c.mu.Lock()
	c.reg.Sessions[info.ID].placedAt = time.Now()
	c.mu.Unlock()
	if _, err := c.Draw(ctx, info.ID, 8); !errors.Is(err, ErrOrphaned) {
		t.Fatalf("draw inside the settling grace: %v, want ErrOrphaned", err)
	}
	// Past the grace the worker's 404 is authoritative.
	c.mu.Lock()
	c.reg.Sessions[info.ID].placedAt = time.Now().Add(-3 * cfg.HeartbeatEvery)
	c.mu.Unlock()
	if _, err := c.Draw(ctx, info.ID, 8); !errors.Is(err, ErrNotFound) {
		t.Fatalf("draw past the settling grace: %v, want ErrNotFound", err)
	}
	si, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if si.State != sessionFailed {
		t.Fatalf("session state %q after detected loss, want failed", si.State)
	}
}

// TestCoordinatorReconcileClosesStrays: a session a worker hosts but
// the registry doesn't place there (a close whose RPC never landed, or
// the survivor of a timed-out assign retried elsewhere) is closed by
// the reconcile pass so it can't bank key material off the books.
func TestCoordinatorReconcileClosesStrays(t *testing.T) {
	rs := newRecordingSpawner()
	cfg := testConfig(rs.Spawn)
	cfg.Workers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	info, err := c.Create(fastSpec(90))
	if err != nil {
		t.Fatal(err)
	}
	// Plant a stray behind the coordinator's back.
	w := workerBehind(t, rs.current(0))
	const strayID = 9999
	if _, err := w.Assign(strayID, fastSpec(91)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "stray garbage collection", func() bool {
		_, err := w.Metrics(strayID)
		return errors.Is(err, ErrNotFound)
	})
	// The legitimate session is untouched.
	si, err := c.Session(context.Background(), info.ID)
	if err != nil || si.State != sessionAssigned {
		t.Fatalf("legitimate session after GC: %+v, %v", si, err)
	}
}

// TestCoordinatorRespawnFailureRetiresSlot: when replacing a dead
// worker keeps failing, the slot burns through its restart budget and
// retires without wedging the supervisor.
func TestCoordinatorRespawnFailureRetiresSlot(t *testing.T) {
	inner := InProcess(nil)
	fail := false
	spawn := func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
		if fail {
			return nil, fmt.Errorf("induced spawn failure")
		}
		return inner(ctx, opts)
	}
	rs := &recordingSpawner{spawn: spawn, procs: make(map[int][]WorkerProc)}
	cfg := testConfig(rs.Spawn)
	cfg.Workers = 2
	cfg.MaxRestarts = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	fail = true // every respawn attempt now errors
	_ = rs.current(0).Kill()
	waitFor(t, 30*time.Second, "slot retirement after failed respawns", func() bool {
		m := c.Metrics()
		return m.Workers[0].Retired && m.Restarts >= int64(cfg.MaxRestarts)
	})
	if m := c.Metrics(); m.WorkersAlive != 1 {
		t.Fatalf("after retirement: %+v", m)
	}
}

// TestExecSpawnerMalformedReady: a worker that prints the ready prefix
// without a URL is rejected and reaped.
func TestExecSpawnerMalformedReady(t *testing.T) {
	if testing.Short() {
		t.Skip("process spawning skipped in -short")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "fake-worker")
	// `exec` so the kill reaches the sleep itself — an orphaned grandchild
	// would hold the test's stderr pipe open for its whole duration.
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho "+ReadyPrefix+"\nexec sleep 30\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	es := &ExecSpawner{Binary: script, Output: os.Stderr, ReadyTimeout: 5 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := es.Spawn(ctx, WorkerSpawnOpts{Slot: 0, Capacity: 1, DrainTimeout: time.Second}); err == nil {
		t.Fatal("malformed ready line accepted")
	}
}
