package gate

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// e2eSpec is a small stream-fed session: offset-addressable and
// deterministic for a seed — the property that lets a reassigned session
// serve byte-identical ranges from its new worker.
func e2eSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    64,
		PayloadBytes: 16,
		Rotate:       true,
		Seed:         seed,
		LowWater:     256,
		TargetDepth:  512,
		Timeout:      10 * time.Second,
		Streamed:     true,
	}
}

// recSpawner wraps the in-process spawner so the test can reach (and
// kill) the proc behind each slot while the coordinator supervises.
type recSpawner struct {
	spawn cluster.SpawnFunc
	mu    sync.Mutex
	procs map[int][]cluster.WorkerProc
}

func newRecSpawner() *recSpawner {
	return &recSpawner{spawn: cluster.InProcess(nil), procs: make(map[int][]cluster.WorkerProc)}
}

func (rs *recSpawner) Spawn(ctx context.Context, opts cluster.WorkerSpawnOpts) (cluster.WorkerProc, error) {
	p, err := rs.spawn(ctx, opts)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	rs.procs[opts.Slot] = append(rs.procs[opts.Slot], p)
	rs.mu.Unlock()
	return p, nil
}

func (rs *recSpawner) current(slot int) cluster.WorkerProc {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	hist := rs.procs[slot]
	if len(hist) == 0 {
		return nil
	}
	return hist[len(hist)-1]
}

func newE2ECoordinator(t *testing.T, spawn cluster.SpawnFunc) *cluster.Coordinator {
	t.Helper()
	co, err := cluster.New(cluster.Config{
		Workers:         2,
		WorkerCapacity:  4,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 3,
		MaxRestarts:     3,
		RespawnBackoff:  20 * time.Millisecond,
		DrainTimeout:    10 * time.Second,
		Spawn:           spawn,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) })
	return co
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

// TestOwnershipInvalidationOnWorkerKill: a gate client reads a range,
// the owning worker dies, the coordinator reassigns the session, and the
// same read through the same gate connection returns byte-identical
// material from the new owner — with the backend's ownership cache
// observably invalidated and re-resolved along the way.
func TestOwnershipInvalidationOnWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e test")
	}
	rs := newRecSpawner()
	co := newE2ECoordinator(t, rs.Spawn)
	info, err := co.Create(e2eSpec(8801))
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	backend := NewClusterBackend(ClusterBackendConfig{
		Resolver:   LocalResolver{C: co},
		WatchEvery: 25 * time.Millisecond,
		Obs:        reg,
	})
	t.Cleanup(func() { backend.Close() })
	g := newTestGate(t, Config{Backend: backend, Obs: reg})
	c := dialPipe(t, g)
	ctx := context.Background()

	var first []byte
	waitFor(t, 60*time.Second, "first gate stream read", func() bool {
		got, err := c.StreamRange(ctx, info.ID, 4096, 96)
		if err != nil {
			return false
		}
		first = got
		return true
	})

	old, err := co.Owner(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	proc := rs.current(old.Worker)
	if proc == nil {
		t.Fatalf("no proc recorded for slot %d", old.Worker)
	}
	_ = proc.Kill()

	// The coordinator notices the death and reassigns the session to a
	// different worker URL (a respawned slot also gets a fresh URL).
	waitFor(t, 60*time.Second, "session reassignment", func() bool {
		oi, err := co.Owner(info.ID)
		return err == nil && oi.URL != "" && oi.URL != old.URL
	})

	var second []byte
	waitFor(t, 60*time.Second, "post-kill gate stream read", func() bool {
		got, err := c.StreamRange(ctx, info.ID, 4096, 96)
		if err != nil {
			return false
		}
		second = got
		return true
	})
	if !bytes.Equal(first, second) {
		t.Fatalf("range [4096,4192) changed across reassignment:\n old %x\n new %x", first, second)
	}

	// The cache demonstrably turned over: the stale entry was dropped
	// (reactively on the failed RPC, or proactively by the epoch watch)
	// and ownership was resolved at least twice in total.
	if inv, fl := backend.invalidations.Value(), backend.flushes.Value(); inv+fl == 0 {
		t.Fatal("ownership cache never invalidated across a worker kill")
	}
	if m := backend.misses.Value(); m < 2 {
		t.Fatalf("owner cache misses %d, want at least 2 (initial + re-resolve)", m)
	}
}

// cutBackend forwards to a real backend, but once armed it severs the
// connection halfway through the next stream call.
type cutBackend struct {
	Backend
	kill  func()
	armed atomic.Bool
}

func (b *cutBackend) StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	if !b.armed.CompareAndSwap(true, false) {
		return b.Backend.StreamTo(ctx, session, off, n, w)
	}
	written, err := b.Backend.StreamTo(ctx, session, off, n/2, w)
	if err != nil {
		return written, err
	}
	b.kill()
	return written, fmt.Errorf("wire cut after %d of %d bytes", written, n)
}

// TestReconnectResumesDefaultClusterSession: on a default cluster
// session (UDP, not Streamed) a range cut mid-flight resumes from the
// written offset on a fresh connection, and the assembled range equals
// an uncut read of the same bytes.
func TestReconnectResumesDefaultClusterSession(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e test")
	}
	co := newE2ECoordinator(t, nil)
	spec := e2eSpec(8803)
	spec.Streamed = false
	info, err := co.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	backend := NewClusterBackend(ClusterBackendConfig{
		Resolver: LocalResolver{C: co},
		Obs:      obs.New(),
	})
	t.Cleanup(func() { backend.Close() })
	cb := &cutBackend{Backend: backend}
	g := newTestGate(t, Config{Backend: cb})
	c := dialPipe(t, g)
	ctx := context.Background()

	const off, length = 4096, 96
	var want []byte
	waitFor(t, 60*time.Second, "uncut range", func() bool {
		want, err = c.StreamRange(ctx, info.ID, off, length)
		return err == nil
	})

	d := &pipeDialer{g: g}
	cb.kill = d.killLast
	rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
	defer rc.Close()
	cb.armed.Store(true)
	got, err := rc.StreamRange(ctx, info.ID, off, length)
	if err != nil {
		t.Fatalf("range across a mid-range cut: %v", err)
	}
	if cb.armed.Load() {
		t.Fatal("the range was never cut")
	}
	if rc.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", rc.Redials())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed range differs from the uncut read:\n got %x\nwant %x", got, want)
	}
}

// TestGateServesWithoutCoordinatorRelay: every byte of key material the
// gate serves comes from worker /ctl RPCs — the coordinator answers
// ownership lookups only, never draw or stream requests.
func TestGateServesWithoutCoordinatorRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e test")
	}
	co := newE2ECoordinator(t, nil)
	info, err := co.Create(e2eSpec(8802))
	if err != nil {
		t.Fatal(err)
	}

	var ownerHits, relayHits atomic.Int64
	var relayMu sync.Mutex
	var relayPaths []string
	inner := co.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		switch {
		case strings.HasPrefix(p, "/v1/cluster/owners"):
			ownerHits.Add(1)
		case strings.HasSuffix(p, "/draw") || strings.HasSuffix(p, "/stream"):
			relayHits.Add(1)
			relayMu.Lock()
			relayPaths = append(relayPaths, p)
			relayMu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	backend := NewClusterBackend(ClusterBackendConfig{
		Resolver:   NewHTTPResolver(ts.URL),
		WatchEvery: 50 * time.Millisecond,
		Obs:        obs.New(),
	})
	t.Cleanup(func() { backend.Close() })
	g := newTestGate(t, Config{Backend: backend})
	c := dialPipe(t, g)
	ctx := context.Background()

	waitFor(t, 60*time.Second, "gate-served session", func() bool {
		_, err := c.Draw(ctx, info.ID, 8)
		return err == nil
	})
	for i := 0; i < 20; i++ {
		if _, err := c.Draw(ctx, info.ID, 32); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.StreamRange(ctx, info.ID, int64(i)*256, 128); err != nil {
			t.Fatal(err)
		}
	}

	if ownerHits.Load() == 0 {
		t.Fatal("gate never consulted /v1/cluster/owners")
	}
	if n := relayHits.Load(); n != 0 {
		relayMu.Lock()
		defer relayMu.Unlock()
		t.Fatalf("%d key-material requests relayed through the coordinator: %v", n, relayPaths)
	}
}

// TestWebSocketRoundTrip: the WebSocket upgrade carries the same frame
// protocol — a WS client and a raw-pipe client read byte-identical
// ranges, and typed errors survive the extra framing layer.
func TestWebSocketRoundTrip(t *testing.T) {
	sv := service.New(service.Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	t.Cleanup(func() { sv.Shutdown(context.Background()) })
	s, err := sv.Create(e2eSpec(8803))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	session := uint64(s.ID)

	g := newTestGate(t, Config{Backend: ServiceBackend{SV: sv}, HeartbeatEvery: time.Hour})
	mux := http.NewServeMux()
	mux.Handle("/v1/gate", g.WSHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	ws, err := DialWS(ts.URL + "/v1/gate")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	pipe := dialPipe(t, g)

	key, err := ws.Draw(ctx, session, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 32 {
		t.Fatalf("ws draw returned %d bytes, want 32", len(key))
	}

	a, err := ws.StreamRange(ctx, session, 512, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe.StreamRange(ctx, session, 512, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("WS and raw-frame clients disagree on the same stream range")
	}

	if _, err := ws.Draw(ctx, session+9999, 8); err == nil {
		t.Fatal("ws draw on unknown session succeeded")
	}

	if v := g.connections.Value(); v != 2 {
		t.Fatalf("connections gauge %v, want 2 (ws + pipe)", v)
	}
}

// TestWSHandlerRejectsPlainGET: the upgrade endpoint refuses requests
// without the WebSocket handshake headers instead of hijacking them.
func TestWSHandlerRejectsPlainGET(t *testing.T) {
	g := newTestGate(t, Config{})
	ts := httptest.NewServer(g.WSHandler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("plain GET got %d, want a 4xx upgrade rejection", resp.StatusCode)
	}
}
