package keystream

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/transport"
)

// chanBus is a NewBus that runs each block over a plain in-process bus,
// so the block's members run: the pipelined protocol path.
func chanBus(erasure float64) func(_, blockSeed int64, inbox int) (transport.Bus, error) {
	return func(_, blockSeed int64, inbox int) (transport.Bus, error) {
		return transport.NewChanBus(erasure, blockSeed, inbox), nil
	}
}

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
// its arena, and every slab and row is back in its free list rather than
// abandoned unzeroed. A stream with no bus zeroes what its leader-only
// blocks use — the x-payload generator's round key, the x-symbol slabs,
// the x-payload buffer and the leader's round scratch — and carves no
// frame at all. Over a bus the leader's
// frame slabs and z-payload buffer and the members' x-decode rows and
// secret copies are zeroed too. (RoundScratch.Zero, which clears the
// leader's and members' y/z/s rows, is pinned by
// core.TestRoundScratchZero.)
func TestArenaZeroedAfterClose(t *testing.T) {
	nonzero := func(v uint16) bool { return v != 0 }
	nonzeroByte := func(v byte) bool { return v != 0 }
	run := func(t *testing.T, cfg Config) *Stream {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(s, make([]byte, 6*cfg.BlockSize)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return s
	}
	// xSlabs checks every arena's x-payload generator, x-payload buffer
	// and x-symbol slabs and returns how many slabs they hold. A zeroed
	// generator is keyed with the zero key: its next bytes are the zero
	// key's first ones.
	var zeroKey packet.XGen
	zeroKey.Zero()
	zeroKeyBytes := make([]byte, 64)
	zeroKey.Fill(zeroKeyBytes)
	xSlabs := func(t *testing.T, s *Stream) int {
		n := 0
		for w, a := range s.arenas {
			next := make([]byte, len(zeroKeyBytes))
			a.xgen.Fill(next)
			if !bytes.Equal(next, zeroKeyBytes) {
				t.Fatalf("worker %d: x-payload generator still keyed by a round", w)
			}
			if slices.ContainsFunc(a.xpay, nonzeroByte) {
				t.Fatalf("worker %d: x-payload buffer not zeroed", w)
			}
			for _, x := range a.xfree {
				n++
				for _, row := range x {
					if slices.ContainsFunc(row, nonzero) {
						t.Fatalf("worker %d: x-symbol slab not zeroed", w)
					}
				}
			}
		}
		return n
	}
	t.Run("leader-only", func(t *testing.T) {
		s := run(t, protoCfg(23))
		rows := 0
		for w, a := range s.arenas {
			rows += scratchRows(&a.leader)
			if scratchNonzero(&a.leader) {
				t.Fatalf("worker %d: the leader's round scratch not zeroed", w)
			}
			if len(a.xframes.chunks)+len(a.cframes.chunks) != 0 {
				t.Fatalf("worker %d: a block with no bus carved frames", w)
			}
		}
		if xslabs := xSlabs(t, s); xslabs == 0 || rows == 0 {
			t.Fatalf("arenas hold %d x slabs and %d leader rows after 6 blocks; the derivation bypassed them", xslabs, rows)
		}
	})
	t.Run("chanbus", func(t *testing.T) {
		cfg := protoCfg(23)
		cfg.NewBus = chanBus(cfg.Erasure)
		s := run(t, cfg)
		xslabs, rows, chunks := xSlabs(t, s), 0, 0
		for w, a := range s.arenas {
			for _, fs := range []*frameSlab{&a.xframes, &a.cframes} {
				for _, c := range fs.chunks {
					chunks++
					if len(c) != 0 || slices.ContainsFunc(c[:cap(c)], nonzeroByte) {
						t.Fatalf("worker %d: frame slab not rewound to zero", w)
					}
				}
			}
			if len(a.zpay) != cfg.PayloadBytes || slices.ContainsFunc(a.zpay, nonzeroByte) || a.zp.Payload != nil {
				t.Fatalf("worker %d: z-payload buffer (%d bytes) not zeroed, or the z-packet still points at it", w, len(a.zpay))
			}
			for term := range a.terms {
				ta := &a.terms[term]
				for _, row := range ta.rows {
					rows++
					if slices.ContainsFunc(row, nonzero) {
						t.Fatalf("worker %d terminal %d: x-decode row not zeroed", w, term)
					}
				}
				if slices.ContainsFunc(ta.secret, nonzeroByte) {
					t.Fatalf("worker %d terminal %d: secret copy not zeroed", w, term)
				}
			}
		}
		if xslabs == 0 || rows == 0 || chunks == 0 {
			t.Fatalf("arenas hold %d x slabs, %d decode rows and %d frame chunks after 6 blocks; the derivation bypassed them", xslabs, rows, chunks)
		}
	})
}

// scratchRows counts the rows a core.RoundScratch holds, and
// scratchNonzero reports whether any of them, to its capacity, holds a
// nonzero symbol. The rows are unexported, so both read them through
// reflection.
func scratchRows(sc *core.RoundScratch) int {
	return reflect.ValueOf(sc).Elem().FieldByName("bufs").Len()
}

func scratchNonzero(sc *core.RoundScratch) bool {
	bufs := reflect.ValueOf(sc).Elem().FieldByName("bufs")
	for i := range bufs.Len() {
		row := bufs.Index(i)
		row = row.Slice(0, row.Cap())
		for j := range row.Len() {
			if row.Index(j).Uint() != 0 {
				return true
			}
		}
	}
	return false
}

// TestDeriveWithoutArena: a block context without a worker's arena
// derives on a fresh one per block, to the same bytes, with no bus and
// over one.
func TestDeriveWithoutArena(t *testing.T) {
	for _, bus := range []bool{false, true} {
		cfg := protoCfg(29)
		if bus {
			cfg.NewBus = chanBus(cfg.Erasure)
		}
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
				t.Fatalf("bus=%v: block %d derived without an arena differs from ReferenceBlock", bus, idx)
			}
		}
		if ok, bad := bc.es.verifyOK.Load(), bc.es.verifyMismatch.Load(); bad != 0 || (ok == 0) == bus {
			t.Fatalf("bus=%v: members verified %d rounds, %d mismatches", bus, ok, bad)
		}
	}
}
