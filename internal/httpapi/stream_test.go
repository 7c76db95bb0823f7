package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// countingWriter is a ResponseWriter that keeps only the byte count.
type countingWriter struct {
	h http.Header
	n int64
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(int)             {}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// onesReader is an endless source of 0x01 bytes.
type onesReader struct{}

func (onesReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 1
	}
	return len(p), nil
}

// TestStreamBodyAlloc: in steady state StreamBody takes its chunk buffer
// from the pool, so a 256 KiB body allocates a few header strings, not a
// StreamChunk buffer per request.
func TestStreamBodyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const (
		n     = 256 << 10
		calls = 64
	)
	r := httptest.NewRequest(http.MethodGet, "/stream", nil)
	w := &countingWriter{h: make(http.Header)}
	src := &io.LimitedReader{R: onesReader{}}
	body := func() {
		w.n, src.N = 0, n
		if !StreamBody(w, r, src, n) || w.n != n {
			t.Fatalf("StreamBody wrote %d of %d bytes", w.n, n)
		}
	}
	body() // warm up the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= StreamChunk/8 {
		t.Fatalf("StreamBody allocated %d bytes per request, want < %d (no chunk buffer)", per, StreamChunk/8)
	}
}

// TestStreamChunkPutClears: a chunk buffer that carried key material
// goes back to the pool cleared over the length it used.
func TestStreamChunkPutClears(t *testing.T) {
	bp := streamChunks.Get().(*[]byte)
	chunk := *bp
	for i := range chunk {
		chunk[i] = 0xFF
	}
	putStreamChunk(bp, len(chunk))
	if !bytes.Equal(chunk, make([]byte, len(chunk))) {
		t.Fatal("pooled stream chunk still holds key bytes")
	}
}
