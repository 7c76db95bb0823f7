package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/keypool"
	"repro/internal/service"
)

// hungSpawner wraps InProcess but hides process exits from the
// coordinator: Done never fires, so the only way the supervisor can
// notice a dead worker is consecutive heartbeat failures — the path a
// wedged (not crashed) process takes.
type hungSpawner struct {
	inner SpawnFunc
	procs chan WorkerProc
}

func newHungSpawner() *hungSpawner {
	return &hungSpawner{inner: InProcess(nil), procs: make(chan WorkerProc, 16)}
}

type hiddenExitProc struct{ WorkerProc }

func (p hiddenExitProc) Done() <-chan struct{} { return make(chan struct{}) }

func (hs *hungSpawner) Spawn(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
	p, err := hs.inner(ctx, opts)
	if err != nil {
		return nil, err
	}
	hs.procs <- p
	return hiddenExitProc{p}, nil
}

// TestCoordinatorHeartbeatDetection: a worker that stops answering RPC
// without visibly exiting must be declared dead after the configured
// miss count and its sessions reassigned.
func TestCoordinatorHeartbeatDetection(t *testing.T) {
	hs := newHungSpawner()
	cfg := testConfig(hs.Spawn)
	cfg.Workers = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	info, err := c.Create(fastSpec(55))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, fastSpec(55).TargetDepth)

	// Kill the underlying worker; Done stays open, so only heartbeats can
	// notice.
	var victim WorkerProc
	for i := 0; i < cap(hs.procs); i++ {
		select {
		case p := <-hs.procs:
			if p.URL() == c.Metrics().Workers[info.Worker].URL {
				victim = p
			}
		default:
		}
	}
	if victim == nil {
		t.Fatal("victim proc not captured")
	}
	_ = victim.Kill()

	waitFor(t, 60*time.Second, "heartbeat-driven reassignment", func() bool {
		si, err := c.Session(ctx, info.ID)
		return err == nil && si.State == sessionAssigned && si.Reassigns > 0
	})
	waitFor(t, 60*time.Second, "post-detection draw", func() bool {
		_, err := c.Draw(ctx, info.ID, 16)
		return err == nil
	})
}

// TestCoordinatorSlotRetirement: a slot that keeps dying past its
// restart budget is retired; the tier keeps serving on survivors.
func TestCoordinatorSlotRetirement(t *testing.T) {
	rs := newRecordingSpawner()
	cfg := testConfig(rs.Spawn)
	cfg.Workers = 2
	cfg.WorkerCapacity = 8
	cfg.MaxRestarts = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	// Kill slot 0's worker twice: one respawn allowed, then retirement.
	for gen := 0; gen < 2; gen++ {
		proc := rs.current(0)
		_ = proc.Kill()
		waitFor(t, 30*time.Second, "death handling", func() bool {
			m := c.Metrics()
			if gen == 0 {
				return m.Workers[0].Alive && m.Workers[0].Restarts == 1
			}
			return m.Workers[0].Retired
		})
	}
	m := c.Metrics()
	if !m.Workers[0].Retired || m.WorkersAlive != 1 {
		t.Fatalf("after budget exhaustion: %+v", m.Workers)
	}
	// The tier still serves on the surviving slot.
	info, err := c.Create(fastSpec(66))
	if err != nil {
		t.Fatal(err)
	}
	if info.Worker != 1 {
		t.Fatalf("session placed on retired slot: %+v", info)
	}
}

// TestCoordinatorDrawFailureStates: draws against orphaned, failed and
// unknown sessions map to the typed errors the HTTP layer turns into
// 503 / 410 / 404.
func TestCoordinatorDrawFailureStates(t *testing.T) {
	c, err := New(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	if _, err := c.Draw(ctx, 999, 8); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: %v, want ErrNotFound", err)
	}

	info, err := c.Create(fastSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	// Force the registry states directly: the transitions themselves are
	// covered by the chaos tests; here only the draw mapping is probed.
	c.mu.Lock()
	cs := c.reg.Sessions[info.ID]
	cs.State = sessionOrphaned
	cs.Worker = -1
	c.mu.Unlock()
	if _, err := c.Draw(ctx, info.ID, 8); !errors.Is(err, ErrOrphaned) {
		t.Fatalf("orphaned session: %v, want ErrOrphaned", err)
	}
	c.mu.Lock()
	cs.State = sessionFailed
	c.mu.Unlock()
	if _, err := c.Draw(ctx, info.ID, 8); !errors.Is(err, service.ErrFailed) {
		t.Fatalf("failed session: %v, want service.ErrFailed", err)
	}
	// Failed must stay distinct from graceful close on the typed-error
	// level too — that distinction is the whole point of the code.
	if _, err := c.Draw(ctx, info.ID, 8); errors.Is(err, keypool.ErrClosed) {
		t.Fatalf("failed session classified as closed: %v", err)
	}
}

// TestCoordinatorCreateInvalidSpec: a spec every worker would reject is
// not retried around the fleet and leaves no registry entry behind.
func TestCoordinatorCreateInvalidSpec(t *testing.T) {
	c, err := New(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	bad := fastSpec(1)
	bad.Erasure = 2.0
	if _, err := c.Create(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if n := len(c.Sessions(context.Background())); n != 0 {
		t.Fatalf("registry holds %d sessions after failed create", n)
	}
}

// TestConfigDefaults: the zero Config comes up with workable defaults
// (in-process workers included) and shuts down cleanly.
func TestConfigDefaults(t *testing.T) {
	c, err := New(Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.WorkersAlive != 2 {
		t.Fatalf("default tier: %+v", m)
	}
	if c.Uptime() <= 0 {
		t.Fatal("uptime not running")
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(sctx); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestCoordinatorHTTPErrorPaths: malformed ids and bodies come back as
// 400s, unknown sessions as 404s.
func TestCoordinatorHTTPErrorPaths(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Workers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/sessions/xyz", "", http.StatusBadRequest},
		{http.MethodPost, "/v1/sessions/1/draw?bytes=0", "", http.StatusBadRequest},
		{http.MethodPost, "/v1/sessions", "{not json", http.StatusBadRequest},
		{http.MethodGet, "/v1/sessions/12345", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/sessions/12345", "", http.StatusNotFound},
		{http.MethodPost, "/v1/sessions/12345/draw", "", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
