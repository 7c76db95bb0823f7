package gate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
)

// pipeDialer builds ReconnectConfig.Dial closures over net.Pipe so
// tests can cut the wire at a chosen instant: every dial records its
// server half, and killLast severs the most recent connection.
type pipeDialer struct {
	g  *Gate
	mu sync.Mutex
	// server halves, in dial order
	conns []net.Conn
}

func (d *pipeDialer) dial() (*Client, error) {
	server, cl := net.Pipe()
	d.mu.Lock()
	d.conns = append(d.conns, server)
	d.mu.Unlock()
	go d.g.ServeConn(server)
	return NewClient(cl)
}

func (d *pipeDialer) killLast() {
	d.mu.Lock()
	c := d.conns[len(d.conns)-1]
	d.mu.Unlock()
	c.Close()
}

// TestReconnectRidesGateRestart: kill the gate under a connected
// reconnecting client, start a fresh gate on the same TCP address, and
// the next draws succeed — the client re-dialed by itself.
func TestReconnectRidesGateRestart(t *testing.T) {
	b := &stubBackend{}
	g1 := newTestGate(t, Config{Backend: b})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g1.Serve(ln)
	addr := ln.Addr().String()

	rc, err := DialReconnect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	key, err := rc.Draw(ctx, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if key[0] != patternByte(1, 0) {
		t.Fatalf("draw byte %x, want %x", key[0], patternByte(1, 0))
	}

	// Gate restart: the old process dies (kicking every client), a new
	// one binds the same address.
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	g2 := newTestGate(t, Config{Backend: b})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go g2.Serve(ln2)

	// The draw in flight when the kick lands is interrupted, never
	// replayed; the one after it rides the fresh connection.
	for attempt := 0; ; attempt++ {
		key, err = rc.Draw(ctx, 1, 8)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("draw across gate restart: %v, want success or ErrInterrupted", err)
		}
		if attempt >= 5 {
			t.Fatalf("draw still interrupted after %d attempts: %v", attempt, err)
		}
	}
	if key[0] != patternByte(1, 0) {
		t.Fatalf("post-restart draw byte %x, want %x", key[0], patternByte(1, 0))
	}
	if rc.Redials() == 0 {
		t.Fatal("draw succeeded without a redial — the restart was not ridden through")
	}
}

// blockingBackend parks every draw until the test releases it, so the
// test can cut the connection with the draw provably in flight. It
// counts draw ENTRIES, not completions: the interrupted draw DOES
// complete server-side once released — pool bytes consumed with nobody
// listening is exactly why draws must never be replayed.
type blockingBackend struct {
	stubBackend
	started chan struct{}
	release chan struct{}
	entries atomic.Int32
}

func (b *blockingBackend) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	b.entries.Add(1)
	b.started <- struct{}{}
	<-b.release
	return b.stubBackend.Draw(ctx, session, n)
}

// TestInterruptedDrawNotReplayed: a draw whose connection dies
// mid-flight surfaces ErrInterrupted and is NOT re-issued on the fresh
// connection — the backend sees exactly the draws the caller made.
func TestInterruptedDrawNotReplayed(t *testing.T) {
	b := &blockingBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	g := newTestGate(t, Config{Backend: b})
	d := &pipeDialer{g: g}
	rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
	defer rc.Close()
	ctx := context.Background()

	errc := make(chan error, 1)
	go func() {
		_, err := rc.Draw(ctx, 7, 8)
		errc <- err
	}()
	<-b.started  // the draw reached the backend…
	d.killLast() // …and the wire dies under it
	err := <-errc
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("draw with connection cut mid-flight: %v, want ErrInterrupted", err)
	}
	close(b.release) // unpark the stranded handler (and every later draw)

	// The next draw redials and succeeds; the interrupted one must not
	// ride along.
	if _, err := rc.Draw(ctx, 7, 8); err != nil {
		t.Fatalf("draw after reconnect: %v", err)
	}
	if n := b.entries.Load(); n != 2 {
		t.Fatalf("backend saw %d draws, want 2 (the interrupted one + the explicit retry) — the interrupted draw was replayed", n)
	}
	if rc.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", rc.Redials())
	}
}

// resumeBackend serves the pattern but severs the connection halfway
// through the first stream call, recording every (off, n) request so
// the test can prove the client resumed from the written offset rather
// than re-reading the range.
type resumeBackend struct {
	stubBackend
	kill  func()
	smu   sync.Mutex
	calls [][2]int64
}

func (b *resumeBackend) StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	b.smu.Lock()
	first := len(b.calls) == 0
	b.calls = append(b.calls, [2]int64{off, n})
	b.smu.Unlock()
	if !first {
		return b.stubBackend.StreamTo(ctx, session, off, n, w)
	}
	half := n / 2
	out := make([]byte, half)
	for i := range out {
		out[i] = patternByte(session, off+int64(i))
	}
	if _, err := w.Write(out); err != nil {
		return 0, err
	}
	// net.Pipe writes are synchronous: the client holds those bytes.
	// Now the wire dies before the rest of the range is served.
	b.kill()
	return half, fmt.Errorf("wire cut after %d of %d bytes", half, n)
}

// TestStreamResumeFromWrittenOffset: a stream range cut halfway resumes
// on the fresh connection from exactly the written offset — the second
// backend request starts where the first stopped, and the assembled
// buffer carries each byte exactly once.
func TestStreamResumeFromWrittenOffset(t *testing.T) {
	b := &resumeBackend{}
	g := newTestGate(t, Config{Backend: b})
	d := &pipeDialer{g: g}
	b.kill = d.killLast
	rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
	defer rc.Close()

	const session, off, length = 9, 1000, 64
	got, err := rc.StreamRange(context.Background(), session, off, length)
	if err != nil {
		t.Fatalf("stream across a mid-range cut: %v", err)
	}
	want := make([]byte, length)
	for i := range want {
		want[i] = patternByte(session, off+int64(i))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed range differs from the pattern:\n got %x\nwant %x", got, want)
	}
	b.smu.Lock()
	calls := append([][2]int64(nil), b.calls...)
	b.smu.Unlock()
	wantCalls := [][2]int64{{off, length}, {off + length/2, length / 2}}
	if len(calls) != len(wantCalls) || calls[0] != wantCalls[0] || calls[1] != wantCalls[1] {
		t.Fatalf("backend requests %v, want %v — not a written-offset resume", calls, wantCalls)
	}
	if rc.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", rc.Redials())
	}
}

// TestReconnectSurfacesTypedErrors: an error answered on a live
// connection is a backend verdict, not a wire failure — it must pass
// through untouched with no redial behind it.
func TestReconnectSurfacesTypedErrors(t *testing.T) {
	b := &stubBackend{errFor: map[uint64]error{4: context.DeadlineExceeded}}
	g := newTestGate(t, Config{Backend: b})
	d := &pipeDialer{g: g}
	rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
	defer rc.Close()

	if _, err := rc.Draw(context.Background(), 4, 8); err == nil {
		t.Fatal("draw on an erroring session succeeded")
	} else if errors.Is(err, ErrInterrupted) {
		t.Fatalf("typed backend error misread as an interruption: %v", err)
	}
	// The connection stayed healthy: the next draw reuses it.
	if _, err := rc.Draw(context.Background(), 5, 8); err != nil {
		t.Fatalf("draw after typed error: %v", err)
	}
	if rc.Redials() != 0 {
		t.Fatalf("redials = %d after a typed error, want 0", rc.Redials())
	}
}

// TestReconnectGivesUpAfterBudget: when the gate never comes back the
// dial budget bounds the stall and the caller gets the dial error.
func TestReconnectGivesUpAfterBudget(t *testing.T) {
	dials := 0
	rc := NewReconnectClient(ReconnectConfig{
		Dial: func() (*Client, error) {
			dials++
			return nil, errors.New("nobody listening")
		},
		InitialBackoff: time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		MaxAttempts:    3,
	})
	defer rc.Close()
	_, err := rc.Draw(context.Background(), 1, 8)
	if err == nil {
		t.Fatal("draw succeeded with no gate")
	}
	if dials != 3 {
		t.Fatalf("dial attempts = %d, want 3", dials)
	}
}

// TestReconnectClosedStaysClosed: Close is terminal; no call may dial
// its way out of it.
func TestReconnectClosedStaysClosed(t *testing.T) {
	b := &stubBackend{}
	g := newTestGate(t, Config{Backend: b})
	d := &pipeDialer{g: g}
	rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
	if _, err := rc.Draw(context.Background(), 1, 8); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := rc.Draw(context.Background(), 1, 8); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("draw on closed reconnect client: %v, want ErrClientClosed", err)
	}
}

// TestReconnectReaderAtReadsIntoCaller: the reconnecting client's ReadAt
// appends the range straight into the caller's slice, as the plain
// client's does — the same bytes as StreamRange, a typed error answered
// without a resume, a gate cut mid-range ridden through with each byte
// delivered once, and nothing range-sized allocated.
func TestReconnectReaderAtReadsIntoCaller(t *testing.T) {
	const length = 256 << 10
	ctx := context.Background()
	b := &bodyBackend{failAt: -1}
	d := &pipeDialer{g: newTestGate(t, Config{Backend: b})}
	rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
	defer rc.Close()
	want, err := rc.StreamRange(ctx, 6, 4096, length)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, length)
	ra := rc.ReaderAt(6)
	if n, err := ra.ReadAt(p, 4096); err != nil || n != length {
		t.Fatalf("ReadAt: %d bytes, err %v", n, err)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("ReadAt bytes differ from StreamRange's")
	}
	if !raceEnabled {
		var before, after runtime.MemStats
		const reads = 16
		runtime.ReadMemStats(&before)
		for i := int64(0); i < reads; i++ {
			if _, err := ra.ReadAt(p, i*length); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= 32<<10 {
			t.Fatalf("ReadAt of %d KiB allocated %d bytes, want < 32 KiB", length>>10, per)
		}
	}

	// A typed error is the backend's answer: no resume, no redial.
	failing := &bodyBackend{failAt: 100 << 10, err: fmt.Errorf("worker body: %w", client.ErrFailed)}
	fd := &pipeDialer{g: newTestGate(t, Config{Backend: failing})}
	frc := NewReconnectClient(ReconnectConfig{Dial: fd.dial})
	defer frc.Close()
	if n, err := frc.ReaderAt(6).ReadAt(p, 0); !errors.Is(err, client.ErrFailed) || n != 0 {
		t.Fatalf("ReadAt over a failing body: %d bytes, err %v; want 0 and ErrFailed", n, err)
	}
	if n := failing.streams.Load(); n != 1 || frc.Redials() != 0 {
		t.Fatalf("failing ReadAt made %d backend streams and %d redials, want 1 and 0", n, frc.Redials())
	}

	// A cut halfway resumes from the written offset into the same slice.
	rb := &resumeBackend{}
	cd := &pipeDialer{g: newTestGate(t, Config{Backend: rb})}
	rb.kill = cd.killLast
	crc := NewReconnectClient(ReconnectConfig{Dial: cd.dial})
	defer crc.Close()
	const session, off, short = 9, 1000, 64
	arr := make([]byte, short+16)
	if n, err := crc.ReaderAt(session).ReadAt(arr[:short], off); err != nil || n != short {
		t.Fatalf("ReadAt across a mid-range cut: %d bytes, err %v", n, err)
	}
	for i := range short {
		if arr[i] != patternByte(session, off+int64(i)) {
			t.Fatalf("byte %d of the resumed range differs from the pattern", i)
		}
	}
	if !bytes.Equal(arr[short:], make([]byte, 16)) {
		t.Fatal("ReadAt wrote past len(p)")
	}
	rb.smu.Lock()
	calls := append([][2]int64(nil), rb.calls...)
	rb.smu.Unlock()
	if wantCalls := [][2]int64{{off, short}, {off + short/2, short / 2}}; !slices.Equal(calls, wantCalls) {
		t.Fatalf("backend requests %v, want %v — not a written-offset resume", calls, wantCalls)
	}
	if crc.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", crc.Redials())
	}
}
