package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStreamMatchesPoolDraws is the service-layer differential: on a
// stream-fed session the pool is one sequential consumer of the
// keystream, so concatenating N/keysize sequential pool draws yields
// exactly the stream's prefix — which StreamRange can re-read at any
// time, because stream bytes are addressed, not consumed.
func TestStreamMatchesPoolDraws(t *testing.T) {
	sv := New(Config{MaxSessions: 1})
	defer sv.Shutdown(context.Background())
	spec := fastSpec(8080)
	s, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !s.StreamFed() {
		t.Fatal("fastSpec session should be stream-fed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// Address the stream prefix first (non-consuming) ...
	const draws = 12
	n := int64(draws * spec.PayloadBytes)
	src, err := s.StreamRange(0, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	if _, err := io.ReadFull(src, want); err != nil {
		t.Fatal(err)
	}
	// ... then consume the same bytes as sequential pool draws.
	var got []byte
	for i := 0; i < draws; i++ {
		key, err := s.Draw(spec.PayloadBytes)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		got = append(got, key...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concatenated pool draws != keystream prefix")
	}

	// Re-reading the same range returns the same bytes even though the
	// pool has consumed past it.
	src, err = s.StreamRange(0, n)
	if err != nil {
		t.Fatal(err)
	}
	again := make([]byte, n)
	if _, err := io.ReadFull(src, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("re-read of the same stream range diverged")
	}

	// Draw serves the next contiguous prefix chunk.
	bulkWant := make([]byte, 4*spec.PayloadBytes+5)
	if _, err := io.ReadFull(io.NewSectionReader(s.Stream(), n, int64(len(bulkWant))), bulkWant); err != nil {
		t.Fatal(err)
	}
	bulk, err := s.Draw(len(bulkWant))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bulk, bulkWant) {
		t.Fatal("Draw != next keystream bytes after the sequential draws")
	}
}

// TestStreamEligibility: UDP, observed and authenticated sessions keep
// the lockstep refresh path — StreamRange on them is ErrNoStream, and
// Session.KeyRange serves their ranges as consuming draws at offset 0.
func TestStreamEligibility(t *testing.T) {
	sv := New(Config{MaxSessions: 3})
	defer sv.Shutdown(context.Background())
	for name, mutate := range map[string]func(*SessionSpec){
		"udp":      func(sp *SessionSpec) { sp.UDP = true },
		"observed": func(sp *SessionSpec) { sp.Observe = true },
		"auth":     func(sp *SessionSpec) { sp.AuthBootstrap = []byte("bootstrap-secret") },
	} {
		spec := fastSpec(909)
		mutate(&spec)
		s, err := sv.Create(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.StreamFed() {
			t.Fatalf("%s session claims to be stream-fed", name)
		}
		if _, err := s.StreamRange(0, 16); !errors.Is(err, ErrNoStream) {
			t.Fatalf("%s: StreamRange err %v, want ErrNoStream", name, err)
		}
		sv.Close(s.ID)
	}
}

// TestStreamCloseDuringHTTPRead: closing a session while a chunked
// /stream response is mid-flight terminates the response without
// wedging the handler or the session teardown.
func TestStreamCloseDuringHTTPRead(t *testing.T) {
	sv := New(Config{MaxSessions: 1})
	defer sv.Shutdown(context.Background())
	spec := fastSpec(6161)
	s, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	// A large range far past the derived region: the body will trickle as
	// blocks derive, guaranteeing the close lands mid-read.
	resp, err := http.Get(srv.URL + "/v1/sessions/1/stream?offset=33554432&len=8388608")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read one chunk so the handler is demonstrably producing.
	firstChunk := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, firstChunk); err != nil {
		t.Fatalf("first byte: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var readErr error
	var extra int64
	go func() {
		defer wg.Done()
		extra, readErr = io.Copy(io.Discard, resp.Body)
	}()
	if err := sv.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The body must terminate (truncated or clean error), not hang; any
	// bytes delivered before the close are fine.
	if readErr != nil && !errors.Is(readErr, io.ErrUnexpectedEOF) {
		t.Logf("mid-close body read ended with: %v after %d extra bytes", readErr, extra)
	}
	if extra+1 >= 8388608 {
		t.Fatal("full body delivered despite mid-read close")
	}
	waitFor(t, 10*time.Second, "session teardown", func() bool {
		return s.State() == StateClosed
	})
	if _, err := s.StreamRange(0, 16); err == nil {
		t.Fatal("StreamRange on a closed session succeeded")
	}
}
