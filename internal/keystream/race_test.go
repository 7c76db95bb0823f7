package keystream

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestConcurrentReaders: sequential and random-access readers share one
// protocol-engine stream concurrently; every reader sees the reference
// bytes. Run under -race this is the suite's data-race probe for the
// cache, the cursor, and the prefetch histories.
func TestConcurrentReaders(t *testing.T) {
	cfg := protoCfg(1234)
	const nblocks = 8
	want := readRef(t, cfg, nblocks)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Random-access readers at independent offsets.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for trial := 0; trial < 16; trial++ {
				off := rng.Int63n(int64(len(want) - 1))
				n := 1 + rng.Intn(len(want)-int(off))
				got := make([]byte, n)
				if _, err := s.ReadAt(got, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[off:int(off)+n]) {
					errs <- errors.New("concurrent ReadAt diverged from reference")
					return
				}
			}
		}(g)
	}
	// Sequential readers sharing the cursor: each byte of the prefix is
	// handed to exactly one of them, so their interleaved chunks must
	// re-assemble to the reference prefix.
	var seqMu sync.Mutex
	type chunk struct {
		pos int64
		b   []byte
	}
	var chunks []chunk
	var pos int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				buf := make([]byte, 700) // odd size: straddles blocks
				seqMu.Lock()
				if pos >= int64(len(want)) {
					seqMu.Unlock()
					return
				}
				// Read under the chunk lock so (pos, bytes) pairs stay
				// attributable; Read itself is also safe without it.
				n, err := s.Read(buf)
				if n > 0 {
					chunks = append(chunks, chunk{pos, buf[:n]})
					pos += int64(n)
				}
				seqMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, c := range chunks {
		end := c.pos + int64(len(c.b))
		if end > int64(len(want)) {
			t.Fatalf("sequential chunk overran: [%d, %d)", c.pos, end)
		}
		if !bytes.Equal(c.b, want[c.pos:end]) {
			t.Fatalf("sequential chunk at %d diverged from reference", c.pos)
		}
	}
}

// TestCloseRacingReadAtNeverZeroizes: a reader racing Close must get the
// true key-material bytes for every position it reports read — never a
// prefix silently zeroized under it. Close used to wipe cached block
// buffers while ReadAt was still copying from them outside the lock;
// held blocks (demand > 0) now defer their zeroization to release().
// Under -race this is also the direct probe for that write-during-copy.
func TestCloseRacingReadAtNeverZeroizes(t *testing.T) {
	// Large blocks from the cheap GF(2^8) source widen the copy window the
	// race has to land in.
	const blockSize = 64 << 10
	const nblocks = 4
	cfg := Config{
		Terminals: 2, XPerRound: 4, PayloadBytes: 4,
		Seed:      77,
		BlockSize: blockSize,
		Source:    XOFSource8(77),
	}
	src := XOFSource8(77)
	want := make([]byte, nblocks*blockSize)
	for i := 0; i < nblocks; i++ {
		if err := src(nil, int64(i), want[i*blockSize:(i+1)*blockSize]); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 32; trial++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Derive everything up front so the readers below run hot on cache
		// hits — pure acquire/copy/release — when Close lands.
		if _, err := s.ReadAt(make([]byte, len(want)), 0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]byte, len(want))
				for {
					n, rerr := s.ReadAt(got, 0)
					if !bytes.Equal(got[:n], want[:n]) {
						t.Errorf("reader %d: %d reported bytes diverged from reference (zeroized under a racing Close?)", g, n)
						return
					}
					if rerr != nil {
						if !errors.Is(rerr, ErrClosed) {
							t.Errorf("reader %d: %v", g, rerr)
						}
						return
					}
				}
			}(g)
		}
		time.Sleep(200 * time.Microsecond) // let the readers get mid-copy
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestCloseDuringRead: closing the stream while readers are blocked on
// underived blocks wakes them with ErrClosed (or lets them finish) and
// never deadlocks.
func TestCloseDuringRead(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		cfg := protoCfg(int64(5000 + trial))
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 4*cfg.BlockSize)
				// Far offsets so some reads are certainly still waiting on
				// derivation when Close lands.
				_, err := s.ReadAt(buf, int64(g)*int64(len(buf)))
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("reader %d: %v", g, err)
				}
			}(g)
		}
		if trial%2 == 0 {
			// Give readers a head start on even trials so Close races
			// mid-derivation, not just pre-derivation.
			buf := make([]byte, 1)
			_, _ = s.ReadAt(buf, 0)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// Post-close reads fail fast.
		if _, err := s.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close ReadAt: %v, want ErrClosed", err)
		}
		if _, err := io.ReadFull(s, make([]byte, 1)); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close Read: %v, want ErrClosed", err)
		}
	}
}
