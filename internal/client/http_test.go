package client_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/httpapi"
)

// patternSource is an endless stub keystream: byte i of the stream is
// byte(i*7 + i>>8).
type patternSource struct{ pos int64 }

func (s *patternSource) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = patternByte(s.pos + int64(i))
	}
	s.pos += int64(len(p))
	return len(p), nil
}

func patternByte(i int64) byte { return byte(i*7 + i>>8) }

// streamStub serves /v1/sessions/{id}/stream from patternSource through
// httpapi.StreamBody, the body every tier's stream route writes; cutAt
// > 0 makes it serve only that many bytes of a longer range.
func streamStub(t *testing.T, cutAt int64) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := httpapi.SessionID(w, r); !ok {
			return
		}
		off, n, ok := httpapi.StreamRange(w, r)
		if !ok {
			return
		}
		var src io.Reader = &patternSource{pos: off}
		if cutAt > 0 {
			src = io.LimitReader(src, cutAt)
		}
		httpapi.StreamBody(w, r, src, n)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPReaderAtAllocBytes: ReadAt streams the body straight into the
// caller's slice. Fetching the range into a buffer of its own and
// copying it into p cost 271 KB per 256 KiB read, client and server
// together; what is left is the two sides' per-request HTTP state.
func TestHTTPReaderAtAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	const (
		length = 256 << 10
		reads  = 16
	)
	c := client.NewHTTP(streamStub(t, 0).URL)
	defer c.Close()
	ra := c.ReaderAt(4)
	p := make([]byte, length)
	for i := 0; i < 4; i++ { // warm up: connection, pools, goroutine stacks
		if _, err := ra.ReadAt(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < reads; i++ {
		if _, err := ra.ReadAt(p, i*length); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("%.1f KB allocated per %d KiB ReadAt", float64(per)/1e3, length>>10)
	if per >= 64<<10 {
		t.Fatalf("ReadAt of %d KiB allocated %d bytes, want < 64 KiB", length>>10, per)
	}
	for i := range p {
		if p[i] != patternByte(int64(reads-1)*length+int64(i)) {
			t.Fatalf("byte %d of the last read is not the stream's", i)
		}
	}
}

// TestHTTPStreamRangeToShortBody: a body that ends before the range does
// fails loudly with ErrUnreachable, and ReadAt reports no bytes and
// leaves the caller's array past len(p) alone.
func TestHTTPStreamRangeToShortBody(t *testing.T) {
	const length = 256 << 10
	c := client.NewHTTP(streamStub(t, 100<<10).URL)
	defer c.Close()
	var sink bytes.Buffer
	n, err := c.StreamRangeTo(t.Context(), 4, 0, length, &sink)
	if !errors.Is(err, client.ErrUnreachable) || n != int64(sink.Len()) || n >= length {
		t.Fatalf("StreamRangeTo over a cut body: %d bytes (sink %d), err %v; want a short count and ErrUnreachable", n, sink.Len(), err)
	}
	arr := make([]byte, length+64)
	if n, err := c.ReaderAt(4).ReadAt(arr[:length], 0); !errors.Is(err, client.ErrUnreachable) || n != 0 {
		t.Fatalf("ReadAt over a cut body: %d bytes, err %v", n, err)
	}
	for _, b := range arr[length:] {
		if b != 0 {
			t.Fatal("ReadAt wrote past len(p)")
		}
	}
}
