package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// patternByte is the deterministic stub keystream: session and absolute
// offset fully determine each byte, so tests can assert both draw
// content and that multiplexed responses never cross request wires.
func patternByte(session uint64, off int64) byte {
	return byte(session*31 + uint64(off)*7 + 5)
}

// stubBackend serves the pattern and records draw sizes; errFor forces
// typed failures per session.
type stubBackend struct {
	mu     sync.Mutex
	draws  []int
	errFor map[uint64]error
}

func (b *stubBackend) Draw(_ context.Context, session uint64, n int) ([]byte, error) {
	b.mu.Lock()
	err := b.errFor[session]
	if err == nil {
		b.draws = append(b.draws, n)
	}
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = patternByte(session, int64(i))
	}
	return out, nil
}

func (b *stubBackend) StreamTo(_ context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	b.mu.Lock()
	err := b.errFor[session]
	b.mu.Unlock()
	if err != nil {
		return 0, err
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = patternByte(session, off+int64(i))
	}
	m, werr := w.Write(out)
	return int64(m), werr
}

func newTestGate(t *testing.T, cfg Config) *Gate {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = &stubBackend{}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	g := New(cfg)
	t.Cleanup(func() { g.Close() })
	return g
}

// rawConnect opens a net.Pipe connection to g and completes the
// handshake by hand, returning the client half for frame-level tests.
func rawConnect(t *testing.T, g *Gate) net.Conn {
	t.Helper()
	server, cl := net.Pipe()
	go g.ServeConn(server)
	if err := writeFrame(cl, frameHandshake, []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(cl, nil, 0)
	if err != nil || typ != frameHandshake {
		t.Fatalf("handshake ack: type 0x%02x, err %v", typ, err)
	}
	var ack handshakeAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != protocolVersion || ack.MaxFrame != MaxFrameBody {
		t.Fatalf("handshake ack: %+v", ack)
	}
	if err := writeFrame(cl, frameHandshakeAck, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// expectKick reads frames until the kick arrives and asserts its reason.
func expectKick(t *testing.T, conn net.Conn, reason string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		typ, body, err := readFrame(conn, nil, 0)
		if err != nil {
			t.Fatalf("connection died before kick frame: %v", err)
		}
		if typ != frameKick {
			continue
		}
		if got := string(body); !strings.Contains(got, reason) {
			t.Fatalf("kick reason %q, want %q", got, reason)
		}
		return
	}
}

func TestHandshakeBadVersionKicked(t *testing.T) {
	g := newTestGate(t, Config{})
	server, cl := net.Pipe()
	go g.ServeConn(server)
	defer cl.Close()
	if err := writeFrame(cl, frameHandshake, []byte(`{"version":99}`)); err != nil {
		t.Fatal(err)
	}
	expectKick(t, cl, "unsupported protocol version")
	if v := g.handshakes.Value(); v != 0 {
		t.Fatalf("handshakes counter %d after rejected handshake", v)
	}
	if v := g.kicks.Value(); v != 1 {
		t.Fatalf("kicks counter %d, want 1", v)
	}
}

func TestHandshakeWrongFirstFrameDropped(t *testing.T) {
	g := newTestGate(t, Config{})
	server, cl := net.Pipe()
	go g.ServeConn(server)
	defer cl.Close()
	// A data frame before the handshake: the gate hangs up without
	// serving anything.
	body, err := appendRequest(nil, request{ReqID: 1, Op: opDraw, Session: 1, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(cl, frameData, body); err != nil {
		t.Fatal(err)
	}
	cl.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := readFrame(cl, nil, 0); err == nil {
		t.Fatalf("gate answered a pre-handshake data frame with type 0x%02x", typ)
	}
}

func TestHeartbeatEcho(t *testing.T) {
	g := newTestGate(t, Config{HeartbeatEvery: time.Hour})
	cl := rawConnect(t, g)
	for i := 0; i < 3; i++ {
		if err := writeFrame(cl, frameHeartbeat, nil); err != nil {
			t.Fatal(err)
		}
		cl.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, body, err := readFrame(cl, nil, 0)
		if err != nil || typ != frameHeartbeat || len(body) != 0 {
			t.Fatalf("heartbeat echo %d: type 0x%02x, %d bytes, err %v", i, typ, len(body), err)
		}
	}
}

func TestHeartbeatTimeoutKick(t *testing.T) {
	g := newTestGate(t, Config{HeartbeatEvery: 20 * time.Millisecond})
	cl := rawConnect(t, g)
	// Go silent: after 3 missed intervals the sweeper kicks us.
	expectKick(t, cl, "heartbeat timeout")
	if v := g.heartbeatTimeouts.Value(); v != 1 {
		t.Fatalf("heartbeat_timeouts counter %d, want 1", v)
	}
}

// TestSlowHandshakeNotKickedEarly is the regression for the
// heartbeat-kick window: lastSeen used to be stored once when the agent
// started, so a connection whose handshake legitimately took close to
// the sweep deadline was kickable the moment it completed — before its
// first heartbeat was even due (the client only learns the interval
// from the handshake ack). Handshake frame reads must refresh lastSeen.
func TestSlowHandshakeNotKickedEarly(t *testing.T) {
	const hb = 60 * time.Millisecond // sweep deadline: 3×hb = 180ms of silence
	g := newTestGate(t, Config{HeartbeatEvery: hb})
	server, cl := net.Pipe()
	t.Cleanup(func() { cl.Close() })
	go g.ServeConn(server)
	// Each handshake step stays well inside the silence budget, but the
	// handshake as a whole takes longer than it — the slow-dial shape.
	// The old code pinned lastSeen at connection start, so the sweep saw
	// the whole handshake as one long silence and kicked mid-handshake.
	time.Sleep(2 * hb)
	if err := writeFrame(cl, frameHandshake, []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := readFrame(cl, nil, 0)
	if err != nil || typ != frameHandshake {
		t.Fatalf("handshake ack: type 0x%02x, err %v", typ, err)
	}
	time.Sleep(2 * hb)
	if err := writeFrame(cl, frameHandshakeAck, nil); err != nil {
		t.Fatalf("handshake-ack write after stall: %v", err)
	}
	// Now behave: heartbeat well inside the interval for several sweep
	// periods and assert every echo comes back instead of a kick.
	for i := 0; i < 8; i++ {
		if err := writeFrame(cl, frameHeartbeat, nil); err != nil {
			t.Fatalf("heartbeat %d write: %v (kicked early?)", i, err)
		}
		typ, _, err := readFrame(cl, nil, 0)
		if err != nil {
			t.Fatalf("heartbeat %d read: %v (kicked early?)", i, err)
		}
		if typ == frameKick {
			t.Fatalf("fresh connection kicked after %d heartbeats", i)
		}
		if typ != frameHeartbeat {
			t.Fatalf("heartbeat %d echoed as type 0x%02x", i, typ)
		}
		time.Sleep(hb / 2)
	}
	if v := g.heartbeatTimeouts.Value(); v != 0 {
		t.Fatalf("heartbeat_timeouts counter %d, want 0", v)
	}
}

func TestMalformedDataFrameKicked(t *testing.T) {
	g := newTestGate(t, Config{})
	cl := rawConnect(t, g)
	if err := writeFrame(cl, frameData, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	expectKick(t, cl, "malformed data frame")
}

func TestUnexpectedFrameTypeKicked(t *testing.T) {
	g := newTestGate(t, Config{})
	cl := rawConnect(t, g)
	if err := writeFrame(cl, 0x7F, nil); err != nil {
		t.Fatal(err)
	}
	expectKick(t, cl, "unexpected frame type")
}

// dialPipe connects a protocol Client to g over net.Pipe.
func dialPipe(t *testing.T, g *Gate) *Client {
	t.Helper()
	server, cl := net.Pipe()
	go g.ServeConn(server)
	c, err := NewClient(cl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBulkDrawIsOneBackendCall(t *testing.T) {
	b := &stubBackend{}
	g := newTestGate(t, Config{Backend: b})
	c := dialPipe(t, g)

	keys, err := c.DrawN(context.Background(), 9, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("DrawN returned %d keys, want 4", len(keys))
	}
	for i, k := range keys {
		if len(k) != 16 {
			t.Fatalf("key %d is %d bytes, want 16", i, len(k))
		}
		for j, got := range k {
			if want := patternByte(9, int64(i*16+j)); got != want {
				t.Fatalf("key %d byte %d: 0x%02x, want 0x%02x", i, j, got, want)
			}
		}
	}
	b.mu.Lock()
	draws := append([]int{}, b.draws...)
	b.mu.Unlock()
	if len(draws) != 1 || draws[0] != 64 {
		t.Fatalf("backend draws %v, want one 64-byte draw", draws)
	}
}

// TestClientForgetsEveryWaiter: every finished request — a draw, a
// range, or one abandoned by its context — removes its waiter, so a
// long-lived connection's waiter map does not grow with its traffic.
func TestClientForgetsEveryWaiter(t *testing.T) {
	const draws = 1000
	// started has room for every draw: only the first one is awaited.
	b := &blockingBackend{started: make(chan struct{}, draws+1), release: make(chan struct{})}
	g := newTestGate(t, Config{Backend: b})
	c := dialPipe(t, g)
	ctx := context.Background()

	// Cancel a draw once the gate holds it: its waiter is registered and
	// its response is still to come. The test holds the reader role, so
	// the draw waits as a non-reader and can see the cancellation.
	c.readSem <- struct{}{}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-b.started
		cancel()
	}()
	if _, err := c.Draw(cctx, 1, 32); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled draw: got %v, want context.Canceled", err)
	}
	<-c.readSem
	close(b.release)

	// The first of these reads (and drops) the abandoned draw's late
	// response.
	for i := 0; i < draws; i++ {
		if _, err := c.Draw(ctx, 1, 32); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.StreamRange(ctx, 1, int64(i)*64, 64); err != nil {
			t.Fatal(err)
		}
	}

	c.mu.Lock()
	left := len(c.waiters)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters left after every request finished, want 0", left)
	}
}

// TestStreamChunkedIntoPartials drives an opStream raw so the test sees
// the frame sequence: a range larger than StreamChunk must arrive as
// multiple kindPartial frames capped at StreamChunk, closed by an empty
// kindFinal, and reassemble to the exact backend bytes.
func TestStreamChunkedIntoPartials(t *testing.T) {
	g := newTestGate(t, Config{})
	cl := rawConnect(t, g)

	const total = 3*httpapi.StreamChunk + 777
	body, err := appendRequest(nil, request{ReqID: 42, Op: opStream, Session: 5, Off: 1000, Len: total})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(cl, frameData, body); err != nil {
		t.Fatal(err)
	}

	var got []byte
	partials := 0
	cl.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, fb, err := readFrame(cl, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if typ != frameData {
			t.Fatalf("unexpected frame type 0x%02x mid-stream", typ)
		}
		resp, err := parseResponse(fb)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ReqID != 42 {
			t.Fatalf("response for request %d, want 42", resp.ReqID)
		}
		if resp.Kind == kindPartial {
			if len(resp.Payload) == 0 || len(resp.Payload) > httpapi.StreamChunk {
				t.Fatalf("partial of %d bytes, want 1..%d", len(resp.Payload), httpapi.StreamChunk)
			}
			partials++
			got = append(got, resp.Payload...)
			continue
		}
		if resp.Kind != kindFinal {
			t.Fatalf("stream ended with kind 0x%02x", resp.Kind)
		}
		got = append(got, resp.Payload...)
		break
	}
	if partials < 4 {
		t.Fatalf("%d partial frames for %d bytes, want at least 4", partials, total)
	}
	if len(got) != total {
		t.Fatalf("reassembled %d bytes, want %d", len(got), total)
	}
	for i, bch := range got {
		if want := patternByte(5, 1000+int64(i)); bch != want {
			t.Fatalf("byte %d: 0x%02x, want 0x%02x", i, bch, want)
		}
	}
}

func TestBackendErrorsMapThroughFrames(t *testing.T) {
	b := &stubBackend{errFor: map[uint64]error{
		1: client.ErrNotFound,
		2: client.ErrSaturated,
		3: fmt.Errorf("depleted: %w", client.ErrExhausted),
		4: client.ErrDraining,
		5: client.ErrOrphaned,
	}}
	g := newTestGate(t, Config{Backend: b})
	c := dialPipe(t, g)
	ctx := context.Background()

	cases := []struct {
		session uint64
		want    error
	}{
		{1, client.ErrNotFound},
		{2, client.ErrSaturated},
		{3, client.ErrExhausted},
		{4, client.ErrDraining},
		{5, client.ErrOrphaned},
	}
	for _, tc := range cases {
		if _, err := c.Draw(ctx, tc.session, 8); !errors.Is(err, tc.want) {
			t.Fatalf("session %d draw error %v, want %v", tc.session, err, tc.want)
		}
		if _, err := c.StreamRange(ctx, tc.session, 0, 8); !errors.Is(err, tc.want) {
			t.Fatalf("session %d stream error %v, want %v", tc.session, err, tc.want)
		}
	}
	// The wrapped error's message survives the wire.
	_, err := c.Draw(ctx, 3, 8)
	if err == nil || !strings.Contains(err.Error(), "depleted") {
		t.Fatalf("error message lost on the wire: %v", err)
	}
	// An error mid-stream discards any partial prefix: truncation is loud.
	if got, err := c.StreamRange(ctx, 1, 0, 8); err == nil || got != nil {
		t.Fatalf("failed stream returned %d bytes, err %v", len(got), err)
	}
}

// TestConcurrentMultiplexing hammers one connection from many
// goroutines with draws and stream ranges; the per-session pattern
// proves responses never land on the wrong request, and no range's
// chunks land in another's buffer.
func TestConcurrentMultiplexing(t *testing.T) {
	g := newTestGate(t, Config{})
	c := dialPipe(t, g)
	ctx := context.Background()

	const workers = 24
	const draws = 40
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			session := uint64(w + 1)
			for i := 0; i < draws; i++ {
				n := 8 + (w+i)%48
				key, err := c.Draw(ctx, session, n)
				if err != nil {
					errc <- fmt.Errorf("worker %d draw %d: %w", w, i, err)
					return
				}
				if len(key) != n {
					errc <- fmt.Errorf("worker %d: %d bytes, want %d", w, len(key), n)
					return
				}
				for j, bch := range key {
					if want := patternByte(session, int64(j)); bch != want {
						errc <- fmt.Errorf("worker %d: byte %d crossed wires", w, j)
						return
					}
				}
				if i%8 != 0 {
					continue
				}
				off, length := int64(i*100), int64(1+(w*7919+i*104729)%(httpapi.StreamChunk+4096))
				got, err := c.StreamRange(ctx, session, off, length)
				if err != nil {
					errc <- fmt.Errorf("worker %d range %d: %w", w, i, err)
					return
				}
				for j, bch := range got {
					if bch != patternByte(session, off+int64(j)) {
						errc <- fmt.Errorf("worker %d: range byte %d crossed wires", w, j)
						return
					}
				}
				if int64(len(got)) != length {
					errc <- fmt.Errorf("worker %d: range of %d bytes, want %d", w, len(got), length)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if v := g.connections.Value(); v != 1 {
		t.Fatalf("connections gauge %v, want 1", v)
	}
}

func TestGateCloseKicksClients(t *testing.T) {
	g := newTestGate(t, Config{})
	c := dialPipe(t, g)
	if _, err := c.Draw(context.Background(), 1, 8); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Draw(context.Background(), 1, 8); err == nil {
		t.Fatal("draw succeeded after gate close")
	}
}

func TestOversizedDrawRejectedWithoutBackendCall(t *testing.T) {
	b := &stubBackend{}
	g := newTestGate(t, Config{Backend: b})
	c := dialPipe(t, g)
	ctx := context.Background()
	if _, err := c.Draw(ctx, 1, httpapi.MaxDrawBytes+1); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("oversized draw: %v, want ErrBadRequest", err)
	}
	// Bulk totals overflow-check: per-key size legal, product over cap.
	if _, err := c.DrawN(ctx, 1, httpapi.MaxDrawBytes/2, 3); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("oversized bulk: %v, want ErrBadRequest", err)
	}
	b.mu.Lock()
	n := len(b.draws)
	b.mu.Unlock()
	if n != 0 {
		t.Fatalf("backend saw %d draws for rejected requests", n)
	}
}
