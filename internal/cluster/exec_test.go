package cluster

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestExecSpawnerRoundTrip drives ExecSpawner directly from inside the
// test process: spawn a real `thinaird worker`, wait for its ready
// line, talk RPC to it, stop one gracefully and kill another. This is
// the process-management layer the e2e harness relies on, exercised
// where the coverage profile can see it. Skipped under -short (it
// builds the binary).
func TestExecSpawnerRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("process spawning skipped in -short")
	}
	bin := buildThinaird(t)
	es := &ExecSpawner{Binary: bin, Output: io.Discard}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	opts := WorkerSpawnOpts{Slot: 0, Capacity: 2, DrainTimeout: 5 * time.Second}
	p, err := es.Spawn(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.URL() == "" || p.PID() == 0 {
		t.Fatalf("proc = url %q pid %d", p.URL(), p.PID())
	}
	select {
	case <-p.Done():
		t.Fatal("worker exited immediately")
	default:
	}
	cl := NewWorkerClient(p.URL())
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("health over exec boundary: %v", err)
	}
	if _, err := cl.Assign(ctx, 1, fastSpec(1)); err != nil {
		t.Fatal(err)
	}
	// Drain over RPC: the supervised worker exits on its own; Stop just
	// reaps it.
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	default:
		t.Fatal("Done not closed after Stop")
	}
	if err := cl.Health(ctx); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("health after stop: %v, want ErrUnreachable", err)
	}

	// Second worker: hard kill.
	p2, err := es.Spawn(ctx, WorkerSpawnOpts{Slot: 1, Capacity: 1, DrainTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Kill(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p2.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("killed worker never reaped")
	}

	// Spawning a nonexistent binary fails cleanly.
	bad := &ExecSpawner{Binary: "/nonexistent/thinaird", Output: io.Discard}
	if _, err := bad.Spawn(ctx, opts); err == nil {
		t.Fatal("spawn of a nonexistent binary succeeded")
	}
	// A binary that never prints the ready line times out and is reaped.
	slow := &ExecSpawner{Binary: "/bin/sleep", Args: nil, Output: io.Discard, ReadyTimeout: 300 * time.Millisecond}
	if _, err := slow.Spawn(ctx, WorkerSpawnOpts{Slot: 2, Capacity: 1, DrainTimeout: time.Second}); err == nil {
		t.Fatal("spawn without ready line succeeded")
	}
}

// TestSpawnErrorPrefixedOnce: a coordinator whose worker binary does not
// exist fails New with an error that names the slot once, followed by
// the exec error itself.
func TestSpawnErrorPrefixedOnce(t *testing.T) {
	bad := &ExecSpawner{Binary: "/nonexistent/thinaird", Output: io.Discard}
	c, err := New(Config{Workers: 1, Spawn: bad.Spawn, Logf: func(string, ...any) {}})
	if err == nil {
		c.Shutdown(context.Background())
		t.Fatal("New with a nonexistent worker binary succeeded")
	}
	msg := err.Error()
	if n := strings.Count(msg, "cluster: spawning worker 0:"); n != 1 || !strings.Contains(msg, "/nonexistent/thinaird") {
		t.Fatalf("error %q: want one \"cluster: spawning worker 0:\" prefix and the binary's path", msg)
	}
	if strings.Count(msg, "cluster:") != 1 {
		t.Fatalf("error %q carries more than one cluster: label", msg)
	}
}
