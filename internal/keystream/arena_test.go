package keystream

import (
	"errors"
	"io"
	"slices"
	"sync"
	"testing"
)

// TestFailedDerivationZeroesBlock: a derivation that fails after writing
// part of its block must not leave those key bytes in the buffer. The
// source writes block 0 and then fails; once the stream is closed, every
// buffer a derivation was handed is zero.
func TestFailedDerivationZeroesBlock(t *testing.T) {
	var (
		mu   sync.Mutex
		bufs [][]byte
	)
	cfg := Config{Terminals: 2, BlockSize: 64, Workers: 1, Source: func(_ *BlockContext, idx int64, dst []byte) error {
		mu.Lock()
		bufs = append(bufs, dst)
		mu.Unlock()
		if idx == 0 {
			for i := range dst {
				dst[i] = 0xa5
			}
		}
		return errors.New("derivation failed")
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("read of a failed block returned no error")
	}
	s.Close() // waits for the workers: nothing touches the buffers after it
	mu.Lock()
	defer mu.Unlock()
	for i, b := range bufs {
		if slices.ContainsFunc(b, func(v byte) bool { return v != 0 }) {
			t.Fatalf("buffer %d of a failed derivation still holds written bytes", i)
		}
	}
}

// TestArenaZeroedAfterClose: once Close returns, every worker has zeroed
// its arena — the x-symbol slabs, the leader's frame slabs and x- and
// z-payload buffers, the members' x-decode rows and secret copies — and every slab
// and row is back in its free list rather than abandoned unzeroed. (RoundScratch.Zero, which clears the leader's and members'
// y/z/s rows, is pinned by core.TestRoundScratchZero.)
func TestArenaZeroedAfterClose(t *testing.T) {
	cfg := protoCfg(23)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(s, make([]byte, 6*cfg.BlockSize)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	nonzero := func(v uint16) bool { return v != 0 }
	xslabs, rows, chunks := 0, 0, 0
	for w, a := range s.arenas {
		for _, fs := range []*frameSlab{&a.xframes, &a.cframes} {
			for _, c := range fs.chunks {
				chunks++
				if len(c) != 0 || slices.ContainsFunc(c[:cap(c)], func(v byte) bool { return v != 0 }) {
					t.Fatalf("worker %d: frame slab not rewound to zero", w)
				}
			}
		}
		if slices.ContainsFunc(a.xpay, func(v byte) bool { return v != 0 }) {
			t.Fatalf("worker %d: x-payload buffer not zeroed", w)
		}
		if len(a.zpay) != cfg.PayloadBytes || slices.ContainsFunc(a.zpay, func(v byte) bool { return v != 0 }) || a.zp.Payload != nil {
			t.Fatalf("worker %d: z-payload buffer (%d bytes) not zeroed, or the z-packet still points at it", w, len(a.zpay))
		}
		for _, x := range a.xfree {
			xslabs++
			for _, row := range x {
				if slices.ContainsFunc(row, nonzero) {
					t.Fatalf("worker %d: x-symbol slab not zeroed", w)
				}
			}
		}
		for term := range a.terms {
			ta := &a.terms[term]
			for _, row := range ta.rows {
				rows++
				if slices.ContainsFunc(row, nonzero) {
					t.Fatalf("worker %d terminal %d: x-decode row not zeroed", w, term)
				}
			}
			if slices.ContainsFunc(ta.secret, func(v byte) bool { return v != 0 }) {
				t.Fatalf("worker %d terminal %d: secret copy not zeroed", w, term)
			}
		}
	}
	if xslabs == 0 || rows == 0 || chunks == 0 {
		t.Fatalf("arenas hold %d x slabs, %d decode rows and %d frame chunks after 6 blocks; the derivation bypassed them", xslabs, rows, chunks)
	}
}

// TestDeriveWithoutArena: a block context without a worker's arena
// derives on a fresh one per block, to the same bytes.
func TestDeriveWithoutArena(t *testing.T) {
	cfg := protoCfg(29)
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	bc := &BlockContext{cfg: &cfg, es: &engineStats{}, health: newMemberHealth(cfg.Terminals), ins: &streamInstruments{}}
	got, want := make([]byte, cfg.BlockSize), make([]byte, cfg.BlockSize)
	for idx := int64(0); idx < 3; idx++ {
		if err := bc.deriveProtocol(idx, got); err != nil {
			t.Fatal(err)
		}
		if err := ReferenceBlock(cfg, idx, want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("block %d derived without an arena differs from ReferenceBlock", idx)
		}
	}
	if bc.es.verifyMismatch.Load() != 0 || bc.es.verifyOK.Load() == 0 {
		t.Fatalf("members verified %d rounds, %d mismatches", bc.es.verifyOK.Load(), bc.es.verifyMismatch.Load())
	}
}
