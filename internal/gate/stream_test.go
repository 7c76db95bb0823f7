package gate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/httpapi"
)

// patternReader reads the stub keystream of one session from off. At
// failAt bytes it stops and reports err: io.EOF for a clean short body,
// anything else for a body that fails mid-range. failAt < 0 never stops.
type patternReader struct {
	session uint64
	off     int64
	read    int64
	failAt  int64
	err     error
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.failAt >= 0 && r.read >= r.failAt {
		return 0, r.err
	}
	if r.failAt >= 0 {
		p = p[:min(int64(len(p)), r.failAt-r.read)]
	}
	for i := range p {
		p[i] = patternByte(r.session, r.off+r.read+int64(i))
	}
	r.read += int64(len(p))
	return len(p), nil
}

// bodyBackend copies a patternReader body into the gate's writer the
// way cluster.WorkerClient.doStream copies a worker's /v1 stream body:
// io.Copy over a LimitReader — so the gate's chunkWriter.ReadFrom does the
// reading — a copy error returned unchanged, and a short body reported
// as a truncation.
type bodyBackend struct {
	stubBackend
	failAt  int64
	err     error
	streams atomic.Int32
}

func (b *bodyBackend) StreamTo(_ context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	b.streams.Add(1)
	src := &patternReader{session: session, off: off, failAt: b.failAt, err: b.err}
	written, err := io.Copy(w, io.LimitReader(src, n))
	if err != nil {
		return written, err
	}
	if written < n {
		return written, fmt.Errorf("%w: stream truncated at %d/%d bytes", client.ErrUnreachable, written, n)
	}
	return written, nil
}

var _ io.ReaderFrom = (*chunkWriter)(nil)

// TestStreamTruncationStaysLoud: a backend body that fails mid-range —
// inside a chunk, exactly on a chunk boundary, or by ending early with a
// clean EOF — fails the client's range with the backend's error and no
// bytes, and the reconnecting client surfaces that answer instead of
// resuming past it.
func TestStreamTruncationStaysLoud(t *testing.T) {
	const length = 256 << 10
	failed := fmt.Errorf("worker body: %w", client.ErrFailed)
	cases := []struct {
		name   string
		failAt int64
		err    error
		want   error
	}{
		{"typed error after 100 KiB", 100 << 10, failed, client.ErrFailed},
		{"typed error at a chunk boundary", httpapi.StreamChunk, failed, client.ErrFailed},
		{"clean EOF short", 100 << 10, io.EOF, client.ErrUnreachable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &bodyBackend{failAt: tc.failAt, err: tc.err}
			g := newTestGate(t, Config{Backend: b})
			ctx := context.Background()

			c := dialPipe(t, g)
			got, err := c.StreamRange(ctx, 3, 0, length)
			if !errors.Is(err, tc.want) || got != nil {
				t.Fatalf("StreamRange: %d bytes, err %v; want no bytes and %v", len(got), err, tc.want)
			}

			d := &pipeDialer{g: g}
			rc := NewReconnectClient(ReconnectConfig{Dial: d.dial})
			defer rc.Close()
			b.streams.Store(0)
			got, err = rc.StreamRange(ctx, 3, 0, length)
			if !errors.Is(err, tc.want) || got != nil {
				t.Fatalf("reconnecting StreamRange: %d bytes, err %v; want no bytes and %v", len(got), err, tc.want)
			}
			if n := b.streams.Load(); n != 1 || rc.Redials() != 0 {
				t.Fatalf("reconnecting client made %d backend streams and %d redials, want 1 and 0", n, rc.Redials())
			}
		})
	}
}

// TestStreamRangeAllocBytes pins what one 256 KiB range allocates with
// the gate and the client in one process over net.Pipe: the range's own
// result buffer and a few small objects. The frames are pooled on the
// gate side, and the client appends each chunk straight into the
// result; copying every chunk into fresh reply and frame buffers and
// again out of the client's read buffer cost 1213.7 KB per range. The
// budget is the largest measured value, 270.0 KB (262.9–270.0 KB over
// eleven runs on linux/amd64, Go 1.24), plus 25%.
func TestStreamRangeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	const (
		length   = 256 << 10
		ranges   = 32
		budgetKB = 338
	)
	g := newTestGate(t, Config{Backend: &bodyBackend{failAt: -1}})
	c := dialPipe(t, g)
	ctx := context.Background()
	for i := 0; i < 4; i++ { // warm up: pools, read buffer, goroutine stacks
		if _, err := c.StreamRange(ctx, 2, 0, length); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < ranges; i++ {
		if _, err := c.StreamRange(ctx, 2, i*length, length); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRange := float64(after.TotalAlloc-before.TotalAlloc) / ranges / 1e3
	t.Logf("%.1f KB allocated per %d KiB range", perRange, length>>10)
	if perRange > budgetKB {
		t.Fatalf("%.1f KB allocated per %d KiB range, budget %d KB", perRange, length>>10, budgetKB)
	}
}

// TestReaderAtReadsIntoCaller: ReadAt fills the caller's slice with the
// same bytes StreamRange returns, fails a short, failed or over-long
// range without writing past len(p), and allocates nothing range-sized.
func TestReaderAtReadsIntoCaller(t *testing.T) {
	const length = 256 << 10
	ctx := context.Background()
	g := newTestGate(t, Config{Backend: &bodyBackend{failAt: -1}})
	c := dialPipe(t, g)
	want, err := c.StreamRange(ctx, 6, 4096, length)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, length)
	ra := c.ReaderAt(6)
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

	// A short body and a failed one are errors, and the tail of the
	// caller's array past len(p) is never touched.
	for _, b := range []*bodyBackend{
		{failAt: 100 << 10, err: io.EOF},
		{failAt: 100 << 10, err: client.ErrFailed},
	} {
		c := dialPipe(t, newTestGate(t, Config{Backend: b}))
		arr := make([]byte, length+64)
		if n, err := c.ReaderAt(6).ReadAt(arr[:length], 0); err == nil || n != 0 {
			t.Fatalf("ReadAt over a body failing with %v: %d bytes, err %v", b.err, n, err)
		}
		if !bytes.Equal(arr[length:], make([]byte, 64)) {
			t.Fatal("ReadAt wrote past len(p)")
		}
	}
	// A backend that answers with more bytes than asked.
	c = dialPipe(t, newTestGate(t, Config{Backend: &overlongBackend{}}))
	arr := make([]byte, 2*length)
	if n, err := c.ReaderAt(6).ReadAt(arr[:length], 0); err == nil || n != 0 {
		t.Fatalf("ReadAt over an over-long body: %d bytes, err %v", n, err)
	}
	if !bytes.Equal(arr[length:], make([]byte, length)) {
		t.Fatal("ReadAt wrote past len(p)")
	}
}

// overlongBackend sends 100 bytes more than the range it was asked for.
type overlongBackend struct{ stubBackend }

func (*overlongBackend) StreamTo(_ context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	return io.Copy(w, io.LimitReader(&patternReader{session: session, off: off, failAt: -1}, n+100))
}

// gatedBackend streams its pattern one StreamChunk at a time. Session 1
// calls cancel after its first chunk and then streams the rest unpaced;
// every other session waits for release after its first chunk.
type gatedBackend struct {
	stubBackend
	cancel  context.CancelFunc
	release chan struct{}
	done    chan struct{} // closed by session 1 once its whole range is out
}

func (b *gatedBackend) StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	if session == 1 {
		defer close(b.done)
	}
	src := &patternReader{session: session, off: off, failAt: -1}
	var written int64
	for written < n {
		m, err := io.Copy(w, io.LimitReader(src, min(n-written, httpapi.StreamChunk)))
		written += m
		if err != nil {
			return written, err
		}
		if written == m { // after the first chunk
			if session == 1 {
				b.cancel()
			} else {
				select {
				case <-b.release:
				case <-ctx.Done():
					return written, ctx.Err()
				}
			}
		}
	}
	return written, nil
}

// TestStreamSinkCancel: two ranges share one connection and one is
// cancelled mid-stream. Its remaining partials keep arriving while the
// other caller reads the connection; none of them may land in the
// cancelled range's buffer once its call has returned. CI repeats this
// under -race, where such a write is a reported race with the check
// below.
//
// The cancelled range is long: a caller in the reader role sees its
// cancellation only between frames, where select picks it with
// probability at least 1/3, so it returns before its last chunk with
// near certainty.
func TestStreamSinkCancel(t *testing.T) {
	const length = 8 * httpapi.StreamChunk
	const cancelledLength = 48 * httpapi.StreamChunk
	ctx, cancel := context.WithCancel(context.Background())
	b := &gatedBackend{cancel: cancel, release: make(chan struct{}), done: make(chan struct{})}
	g := newTestGate(t, Config{Backend: b})
	c := dialPipe(t, g)

	// The other caller: its range stalls after one chunk, so it is
	// waiting on the connection throughout.
	otherErr := make(chan error, 1)
	go func() {
		got, err := c.StreamRange(context.Background(), 2, 0, length)
		if err == nil {
			for i, bch := range got {
				if bch != patternByte(2, int64(i)) {
					err = fmt.Errorf("byte %d of the other range crossed wires", i)
					break
				}
			}
		}
		otherErr <- err
	}()

	buf := make([]byte, 0, cancelledLength)
	buf, err := c.streamRangePrefix(ctx, 1, 0, cancelledLength, buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled range: err %v, want context.Canceled", err)
	}
	snapshot := append([]byte(nil), buf[:cap(buf)]...)

	// The cancelled range's remaining chunks go out and are read off the
	// connection by the other caller, then the other range finishes.
	select {
	case <-b.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the cancelled range's backend never finished")
	}
	close(b.release)
	if err := <-otherErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:cap(buf)], snapshot) {
		t.Fatal("the cancelled range's buffer was written after its call returned")
	}
}

// TestStreamFramePutClears: a frame that carried key material goes back
// to the pool cleared.
func TestStreamFramePutClears(t *testing.T) {
	fp := streamFrames.Get().(*[]byte)
	frame := *fp
	for i := range frame {
		frame[i] = 0xFF
	}
	putStreamFrame(fp)
	if !bytes.Equal(frame, make([]byte, len(frame))) {
		t.Fatal("pooled stream frame still holds key bytes")
	}
}

// TestIdleClientKeepsNoReadBuffer: once a range has completed, the client
// keeps no chunk-sized read buffer — partials are read into pooled frames
// handed back after dispatch — and the small buffer it does keep holds no
// key bytes.
func TestIdleClientKeepsNoReadBuffer(t *testing.T) {
	g := newTestGate(t, Config{Backend: &bodyBackend{failAt: -1}})
	c := dialPipe(t, g)
	ctx := context.Background()
	if _, err := c.StreamRange(ctx, 2, 0, 4*httpapi.StreamChunk+100); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Draw(ctx, 2, 32); err != nil {
		t.Fatal(err)
	}
	if n := cap(c.readBuf); n > 4<<10 {
		t.Fatalf("idle client keeps a %d-byte read buffer, want at most 4 KiB", n)
	}
	if buf := c.readBuf[:cap(c.readBuf)]; !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("idle client's read buffer still holds key bytes")
	}
}
