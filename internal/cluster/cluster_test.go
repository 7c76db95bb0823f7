package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/service"
)

// fastSpec is a small, quick session in the paper's operating regime.
// UDP stays false here: Worker.Assign takes specs as-is, and the
// RPC-level tests don't need sockets (the coordinator forces UDP on the
// specs it places; the coordinator and e2e tests exercise that path).
func fastSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    48,
		PayloadBytes: 16,
		Rotate:       true,
		Seed:         seed,
		LowWater:     192,
		TargetDepth:  384,
		Timeout:      20 * time.Second,
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitForGoroutines asserts the goroutine count returns to (near) the
// pre-test baseline — the coordinator, its supervisors, every in-process
// worker and every session must be gone.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

func sessionName(i int) string { return fmt.Sprintf("grp-%d", i) }
