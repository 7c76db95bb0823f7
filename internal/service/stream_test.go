package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/keypool"
	"repro/internal/keystream"
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

// sessionKinds are the bus shapes a session can ask for, each a
// mutation of fastSpec.
var sessionKinds = []struct {
	name   string
	mutate func(*SessionSpec)
}{
	{"plain", func(*SessionSpec) {}},
	{"udp", func(sp *SessionSpec) { sp.UDP = true }},
	{"observed", func(sp *SessionSpec) { sp.Observe = true }},
	{"auth", func(sp *SessionSpec) { sp.AuthBootstrap = []byte("bootstrap-secret") }},
	{"udp+observed+auth", func(sp *SessionSpec) {
		sp.UDP, sp.Observe, sp.AuthBootstrap = true, true, []byte("bootstrap-secret")
	}},
}

// TestStreamEligibility: UDP, observed and authenticated sessions, and
// all three combined, are stream-fed like a plain one — their ranges are
// addressed, so an offset past the first block re-reads identically.
func TestStreamEligibility(t *testing.T) {
	sv := New(Config{MaxSessions: 1})
	defer sv.Shutdown(context.Background())
	for _, kind := range sessionKinds[1:] {
		spec := fastSpec(909)
		kind.mutate(&spec)
		s, err := sv.Create(spec)
		if err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err = s.WaitReady(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		if s.Stream() == nil {
			t.Fatalf("%s session has no keystream", kind.name)
		}
		a := readRange(t, s, 700, 64)
		if b := readRange(t, s, 700, 64); !bytes.Equal(a, b) {
			t.Fatalf("%s: range at offset 700 re-read differently", kind.name)
		}
		sv.Close(s.ID)
	}
}

func readRange(t *testing.T, s *Session, off, n int64) []byte {
	t.Helper()
	src, err := s.StreamRange(off, n)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(src, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEverySessionKindSameBytes: a session's bytes do not depend on its
// bus. Every kind, with one seed, serves keystream.ReferenceBlock over
// its first four blocks. Bytes are leader-authoritative, so they would
// match even if members dropped every frame: on the bus kinds the
// VerifyOK bar is what proves members really receive — and, on auth
// sessions, open — the control frames. A plain session has no bus: its
// leader derives alone, so no member verifies anything. The observed
// kinds must also certify that Eve misses some secret dimensions.
func TestEverySessionKindSameBytes(t *testing.T) {
	const blocks = 4
	sv := New(Config{MaxSessions: len(sessionKinds)})
	defer sv.Shutdown(context.Background())
	var want []byte
	for _, kind := range sessionKinds {
		t.Run(kind.name, func(t *testing.T) {
			spec := fastSpec(5150)
			kind.mutate(&spec)
			s, err := sv.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close(s.ID)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.WaitReady(ctx); err != nil {
				t.Fatal(err)
			}
			sp := s.Spec()
			if want == nil {
				cfg := keystream.Config{
					Terminals: sp.Terminals, XPerRound: sp.XPerRound, PayloadBytes: sp.PayloadBytes,
					Erasure: sp.Erasure, Seed: sp.Seed, Rotate: sp.Rotate, BlockSize: sp.StreamBlock,
				}
				want = make([]byte, blocks*sp.StreamBlock)
				for b := 0; b < blocks; b++ {
					if err := keystream.ReferenceBlock(cfg, int64(b), want[b*sp.StreamBlock:(b+1)*sp.StreamBlock]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := readRange(t, s, 0, int64(len(want))); !bytes.Equal(got, want) {
				t.Fatal("stream bytes != keystream.ReferenceBlock")
			}
			st := s.Stream().Stats()
			checked := st.VerifyOK + st.VerifyMismatch
			if kind.name == "plain" {
				if st.VerifyOK != 0 || st.VerifyMismatch != 0 {
					t.Fatalf("a session with no bus verified %d rounds, %d mismatched", st.VerifyOK, st.VerifyMismatch)
				}
			} else if checked == 0 || float64(st.VerifyOK) < 0.9*float64(checked) {
				t.Fatalf("members verified %d of %d rounds, want >= 90%%", st.VerifyOK, checked)
			}
			m := s.Metrics()
			if sp.Observe && m.EveUnknownDims == 0 {
				t.Fatalf("observed session certified no unknown dimensions: %+v", m)
			}
			if !sp.Observe && m.EveSecretDims != 0 {
				t.Fatalf("unobserved session reports an Eve certificate: %+v", m)
			}
			if !sp.Observe {
				return
			}
			// Re-reading evicted blocks derives them again, but their
			// certificate counts once: the Eve dims do not move.
			settle(t, s)
			readRange(t, s, 64*int64(sp.StreamBlock), 16*int64(sp.StreamBlock))
			settle(t, s)
			before, stBefore := s.Metrics(), s.Stream().Stats()
			if got := readRange(t, s, 0, int64(len(want))); !bytes.Equal(got, want) {
				t.Fatal("re-read bytes != keystream.ReferenceBlock")
			}
			settle(t, s)
			after, st := s.Metrics(), s.Stream().Stats()
			if st.Blocks-stBefore.Blocks < blocks {
				t.Fatalf("re-read derived %d blocks, want the %d evicted ones again", st.Blocks-stBefore.Blocks, blocks)
			}
			if after.EveSecretDims != before.EveSecretDims || after.EveUnknownDims != before.EveUnknownDims {
				t.Fatalf("re-deriving blocks moved the Eve certificate: %d/%d -> %d/%d",
					before.EveUnknownDims, before.EveSecretDims, after.EveUnknownDims, after.EveSecretDims)
			}
		})
	}
}

// settle waits until s's keystream has run no round for 300ms: its
// prefetchers are idle and every derived block's bus has closed.
func settle(t *testing.T, s *Session) {
	t.Helper()
	last, quiet := int64(-1), 0
	waitFor(t, 30*time.Second, "keystream idle", func() bool {
		st := s.Stream().Stats()
		n := st.Rounds + st.Blocks + st.BlockErrors
		if n == last {
			quiet++
		} else {
			last, quiet = n, 0
		}
		time.Sleep(50 * time.Millisecond)
		return quiet >= 6
	})
}

// TestRangeBeforeStreamUp: a range on a session whose keystream is not up
// yet — here queued behind MaxSessions — is the retry signal (409
// exhausted), not a torn-down session's 410. Once the session runs, the
// same range is served.
func TestRangeBeforeStreamUp(t *testing.T) {
	sv := New(Config{MaxSessions: 1, MaxQueued: 1, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	first, err := sv.Create(fastSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "first session running", func() bool {
		return first.State() == StateRunning
	})
	queued, err := sv.Create(fastSpec(62))
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateQueued {
		t.Fatalf("second session is %v, want queued", st)
	}
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()
	url := fmt.Sprintf("%s/v1/sessions/%d/stream?offset=4096&len=16", srv.URL, queued.ID)
	get := func() (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusConflict || !strings.Contains(body, httpapi.CodeExhausted) {
		t.Fatalf("range on a queued session: %d %s, want 409 %s", code, body, httpapi.CodeExhausted)
	}
	if err := sv.Close(first.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "range served once the session runs", func() bool {
		code, _ := get()
		return code == http.StatusOK
	})
	queued.Close()
	if _, err := queued.StreamRange(0, 16); !errors.Is(err, keystream.ErrClosed) {
		t.Fatalf("range on a closed session: %v, want keystream.ErrClosed", err)
	}
}

// TestUDPSessionReleasesBlockBuses: every block of a UDP+observed session
// runs on its own UDP bus with an observer tap. After the session has
// derived 16 blocks and closed, its goroutines and file descriptors are
// all released.
func TestUDPSessionReleasesBlockBuses(t *testing.T) {
	// The runtime's network poller lives for the whole process: start it
	// before taking the baseline.
	if c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		c.Close()
	}
	sv := New(Config{MaxSessions: 1, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	before, fdsBefore := runtime.NumGoroutine(), openFDs(t)
	start := func(spec SessionSpec) *Session {
		t.Helper()
		s, err := sv.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.WaitReady(ctx); err != nil {
			t.Fatal(err)
		}
		return s
	}
	spec := fastSpec(72)
	spec.UDP, spec.Observe = true, true
	s := start(spec)
	const blocks = 16
	readRange(t, s, 0, int64(blocks*s.Spec().StreamBlock))
	if got := s.Stream().Stats().Blocks; got < blocks {
		t.Fatalf("derived %d blocks, want >= %d", got, blocks)
	}
	if err := sv.Close(s.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before || openFDs(t) > fdsBefore {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("after close: %d goroutines (baseline %d), %d fds (baseline %d)\n%s",
				runtime.NumGoroutine(), before, openFDs(t), fdsBefore, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestUDPSoakObservedSessions soaks the shape a daemon serves with -udp
// -observe: concurrent UDP+observed sessions (every other one also
// authenticated), each deriving many blocks on short-lived per-block UDP
// buses with an observer tap. Readers sweep ranges over more blocks than
// the stream cache holds, so blocks are evicted and derived again, and
// every re-read must match the first read. After every session closes,
// goroutines and file descriptors return to baseline. Skipped under
// -short; set THINAIR_SOAK=1 for the long CI variant.
func TestUDPSoakObservedSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP soak skipped in -short")
	}
	sessions, sweeps := 4, 2
	if os.Getenv("THINAIR_SOAK") != "" {
		sessions, sweeps = 16, 4
	}
	if c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		c.Close()
	}
	sv := New(Config{MaxSessions: sessions, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	before, fdsBefore := runtime.NumGoroutine(), openFDs(t)

	const span = 24 // blocks per sweep, more than the stream cache holds
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		spec := fastSpec(int64(8100 + i))
		spec.UDP, spec.Observe = true, true
		if i%2 == 1 {
			spec.AuthBootstrap = []byte("soak-bootstrap")
		}
		s, err := sv.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			defer sv.Close(s.ID)
			errs <- soakSession(s, span, sweeps)
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before || openFDs(t) > fdsBefore {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("soak leaked: %d goroutines (baseline %d), %d fds (baseline %d)\n%s",
				runtime.NumGoroutine(), before, openFDs(t), fdsBefore, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// soakSession sweeps span blocks of s one block at a time, sweeps times,
// drawing from the pool between sweeps. Every sweep after the first must
// re-read the first sweep's bytes; the session's Eve certificate must end
// non-empty and in range.
func soakSession(s *Session, span, sweeps int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		return fmt.Errorf("session %d: %w", s.ID, err)
	}
	bs := int64(s.Spec().StreamBlock)
	first := make([][]byte, span)
	for sweep := 0; sweep < sweeps; sweep++ {
		for b := 0; b < span; b++ {
			src, err := s.StreamRange(int64(b)*bs, bs)
			if err != nil {
				return fmt.Errorf("session %d block %d: %w", s.ID, b, err)
			}
			got := make([]byte, bs)
			if _, err := io.ReadFull(src, got); err != nil {
				return fmt.Errorf("session %d block %d: %w", s.ID, b, err)
			}
			if first[b] == nil {
				first[b] = got
			} else if !bytes.Equal(got, first[b]) {
				return fmt.Errorf("session %d block %d: re-read differs", s.ID, b)
			}
		}
		if _, err := s.Draw(64); err != nil && !errors.Is(err, keypool.ErrExhausted) {
			return fmt.Errorf("session %d draw: %w", s.ID, err)
		}
	}
	if st := s.Stream().Stats(); st.CacheEvictions == 0 {
		return fmt.Errorf("session %d: no block was evicted; the soak re-read nothing", s.ID)
	}
	m := s.Metrics()
	if m.EveUnknownDims == 0 || m.EveUnknownDims > m.EveSecretDims {
		return fmt.Errorf("session %d: Eve certificate %d/%d", s.ID, m.EveUnknownDims, m.EveSecretDims)
	}
	return nil
}

// openFDs counts the process's open file descriptors (-1 where /proc is
// unavailable).
func openFDs(t *testing.T) int {
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
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
