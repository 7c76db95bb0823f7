package cluster

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recordingSpawner wraps InProcess so tests can reach the procs behind
// each slot (to kill them) while the coordinator supervises as usual.
type recordingSpawner struct {
	spawn SpawnFunc
	mu    sync.Mutex
	procs map[int][]WorkerProc // slot -> spawn history
}

func newRecordingSpawner() *recordingSpawner {
	return &recordingSpawner{spawn: InProcess(nil), procs: make(map[int][]WorkerProc)}
}

func (rs *recordingSpawner) Spawn(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
	p, err := rs.spawn(ctx, opts)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	rs.procs[opts.Slot] = append(rs.procs[opts.Slot], p)
	rs.mu.Unlock()
	return p, nil
}

func (rs *recordingSpawner) current(slot int) WorkerProc {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	hist := rs.procs[slot]
	if len(hist) == 0 {
		return nil
	}
	return hist[len(hist)-1]
}

func testConfig(spawn SpawnFunc) Config {
	return Config{
		Workers:         3,
		WorkerCapacity:  4,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 3,
		MaxRestarts:     3,
		RespawnBackoff:  20 * time.Millisecond,
		DrainTimeout:    10 * time.Second,
		Spawn:           spawn,
		Logf:            func(string, ...any) {},
	}
}

// waitConverged polls the coordinator until the session's pool reaches
// its target depth.
func waitConverged(t *testing.T, c *Coordinator, cid uint64, target int) {
	t.Helper()
	ctx := context.Background()
	waitFor(t, 60*time.Second, "session convergence", func() bool {
		info, err := c.Session(ctx, cid)
		return err == nil && info.Metrics != nil && info.Metrics.Pool.Available >= target
	})
}

// TestCoordinatorPlacementAndKeystream: sessions spread least-loaded
// across workers, draws route to the owner, and two sessions with the
// same spec and seed — placed on different workers — produce the same
// key stream (the registry's survivability story depends on exactly this
// determinism).
func TestCoordinatorPlacementAndKeystream(t *testing.T) {
	c, err := New(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	spec := fastSpec(4242)
	a, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Worker == b.Worker {
		t.Fatalf("same-seed pair landed on one worker (%d): placement is not least-loaded", a.Worker)
	}
	third, err := c.Create(fastSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if third.Worker == a.Worker || third.Worker == b.Worker {
		t.Fatalf("third session on worker %d, want the idle slot", third.Worker)
	}

	waitConverged(t, c, a.ID, spec.TargetDepth)
	waitConverged(t, c, b.ID, spec.TargetDepth)
	ka, err := c.Draw(ctx, a.ID, 96)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := c.Draw(ctx, b.ID, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatal("same spec and seed on different workers produced different key streams")
	}

	// The draw is accounted on the owning worker.
	info, err := c.Session(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Metrics == nil || info.Metrics.Pool.Drawn != 96 {
		t.Fatalf("owner metrics after draw: %+v", info.Metrics)
	}
}

// TestCoordinatorSaturation: the tier rejects sessions beyond total live
// capacity with ErrNoWorkers, and capacity frees on close.
func TestCoordinatorSaturation(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Workers = 2
	cfg.WorkerCapacity = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	var ids []uint64
	for i := 0; i < 4; i++ {
		info, err := c.Create(fastSpec(int64(100 + i)))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	if _, err := c.Create(fastSpec(999)); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("5th create: %v, want ErrNoWorkers", err)
	}
	if err := c.CloseSession(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "capacity to free after close", func() bool {
		_, err := c.Create(fastSpec(1000))
		return err == nil
	})
}

// TestCoordinatorChaosKillAndReassign is the in-process chaos test: a
// worker is killed mid-operation, the coordinator must notice, respawn
// the slot, reassign the dead worker's sessions, draws must succeed
// again, and a range read on a default (UDP) session before the kill must
// re-read byte-identical after it; coordinator shutdown then leaks no
// goroutines. The e2e harness
// repeats this across real OS processes.
func TestCoordinatorChaosKillAndReassign(t *testing.T) {
	before := runtime.NumGoroutine()
	rs := newRecordingSpawner()
	cfg := testConfig(rs.Spawn)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	spec := fastSpec(777)
	var ids []uint64
	for i := 0; i < 4; i++ {
		sp := spec
		sp.Seed = int64(700 + i*13)
		sp.Name = sessionName(i)
		info, err := c.Create(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	// Every session serves addressed ranges: one read before the kill
	// must come back byte-identical from whichever worker owns it after.
	const rangeOff, rangeLen = 1000, 64
	ranges := make(map[uint64][]byte)
	for _, id := range ids {
		waitConverged(t, c, id, spec.TargetDepth)
		r, err := c.StreamRange(ctx, id, rangeOff, rangeLen)
		if err != nil {
			t.Fatal(err)
		}
		ranges[id] = r
	}

	// Kill the worker owning the first session, while its sessions are
	// mid-refresh (a draw below the watermark wakes the refresher).
	victim, err := c.Session(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Draw(ctx, ids[0], spec.TargetDepth-spec.LowWater/2); err != nil {
		t.Fatal(err)
	}
	proc := rs.current(victim.Worker)
	if proc == nil {
		t.Fatalf("no proc recorded for slot %d", victim.Worker)
	}
	_ = proc.Kill()

	// The coordinator must reassign every session of the dead worker and
	// serve draws from the replacements.
	waitFor(t, 60*time.Second, "reassignment after worker kill", func() bool {
		for _, id := range ids {
			info, err := c.Session(ctx, id)
			if err != nil || info.State != sessionAssigned {
				return false
			}
		}
		return c.Metrics().Reassigned > 0
	})
	for _, id := range ids {
		id := id
		waitFor(t, 60*time.Second, "post-reassign draw", func() bool {
			_, err := c.Draw(ctx, id, 32)
			return err == nil
		})
	}
	for _, id := range ids {
		r, err := c.StreamRange(ctx, id, rangeOff, rangeLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r, ranges[id]) {
			t.Fatalf("session %d: range re-read after reassignment differs", id)
		}
	}
	// Draws recover through survivors before the slot is respawned; the
	// replacement worker comes up shortly after.
	waitFor(t, 30*time.Second, "slot respawn", func() bool {
		m := c.Metrics()
		return m.Restarts > 0 && m.WorkersAlive == cfg.Workers
	})
	// The reassigned session's worker changed.
	after, err := c.Session(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Reassigns == 0 {
		t.Fatalf("victim session was never reassigned: %+v", after)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer scancel()
	if err := c.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Create(fastSpec(1)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("create after shutdown: %v, want ErrShutdown", err)
	}
	waitForGoroutines(t, before)
}

// TestCoordinatorShutdownCleanliness: a quiet tier shuts down without
// leaking goroutines and rejects all further work.
func TestCoordinatorShutdownCleanliness(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := New(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Create(fastSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, fastSpec(31).TargetDepth)
	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer scancel()
	if err := c.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := c.Draw(context.Background(), info.ID, 8); err == nil {
		t.Fatal("draw succeeded against a shut-down tier")
	}
	waitForGoroutines(t, before)
}
