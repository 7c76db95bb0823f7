package keystream

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestInboxBound: at the inbox depth the Config implies, a stream whose
// blocks run over an in-process bus (NewBus), with members that keep up,
// sheds no frame and every member verifies every round, over 40 blocks
// with two workers, for the benchmark's shape, the service default, a
// wide group and a rotating-leader group.
func TestInboxBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bench", Config{Terminals: 3, Erasure: 0.45, XPerRound: 128, PayloadBytes: 4096, Seed: 1, BlockSize: 128 << 10}},
		{"service-default", Config{Terminals: 3, Erasure: 0.45, XPerRound: 90, PayloadBytes: 16, Seed: 2, BlockSize: 2048}},
		{"n6-x256", Config{Terminals: 6, Erasure: 0.4, XPerRound: 256, PayloadBytes: 64, Seed: 3, BlockSize: 4096}},
		{"rotate-n4", Config{Terminals: 4, Erasure: 0.4, XPerRound: 64, PayloadBytes: 32, Seed: 4, Rotate: true, BlockSize: 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nblocks = 40
			cfg := tc.cfg
			cfg.Workers = 2
			cfg.NewBus = chanBus(cfg.Erasure)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := io.ReadFull(s, make([]byte, nblocks*cfg.BlockSize)); err != nil {
				t.Fatal(err)
			}
			s.Close() // every derivation's bus closed: its sheds are counted
			st := s.Stats()
			t.Logf("inbox %d frames: %+v", inboxDepth(&s.cfg), st)
			if st.ShedFrames != 0 || st.VerifyMismatch != 0 || st.VerifyOK == 0 {
				t.Fatalf("inbox %d frames: %d frames shed, %d rounds verified, %d mismatched",
					inboxDepth(&s.cfg), st.ShedFrames, st.VerifyOK, st.VerifyMismatch)
			}
		})
	}
}

// TestStalledMemberSheds: the inbox bound is a bound, not a queue that
// absorbs anything. A member wedged for a whole block stops draining, its
// inbox overflows and the bus sheds its frames, while the stream still
// serves the reference bytes.
func TestStalledMemberSheds(t *testing.T) {
	cfg := stallCfg(505)
	cfg.BlockSize = 8192 // enough rounds per block to overflow the inbox
	const nblocks = 2
	want := readRef(t, cfg, nblocks)
	fl := newInjectorFleet()
	fl.stallMember(2)
	cfg.NewBus = fl.newBus(cfg.Erasure)
	got, _, st := timedRead(t, cfg, len(want))
	if !bytes.Equal(got, want) {
		t.Fatal("stalled member changed the stream's bytes")
	}
	if st.ShedFrames == 0 {
		t.Fatalf("a member stalled for whole blocks shed no frames: %+v", st)
	}
}

// tappedBus closes like the service's observed bus: Close returns once
// the observer draining the tap has finished.
type tappedBus struct {
	transport.Bus
	done chan struct{}
}

func (b *tappedBus) Close() error {
	err := b.Bus.Close()
	<-b.done
	return err
}

// TestFrameSlabReuse: the leader's frames are reused block after block.
// Rewinding a slab zeroes it, so a goroutine still reading a frame after
// its block's teardown is a data race the race detector reports. Two bus
// shapes, each with a member slowed by an Injector and two workers: the
// session shape that keeps frames longest — a sealed control plane over a
// bus with an observer on its tap — and a plain bus, whose members read
// the leader's control frames themselves rather than sealed copies. The
// bytes must match the reference and the tap must have decoded rounds.
func TestFrameSlabReuse(t *testing.T) {
	for _, sealed := range []bool{true, false} {
		cfg := stallCfg(71) // a pinned leader: the Injector slows a member only
		cfg.Workers = 2
		const nblocks = 12
		want := readRef(t, cfg, nblocks)

		var tapped atomic.Int64
		cfg.NewBus = func(block, blockSeed int64, inbox int) (transport.Bus, error) {
			var bus transport.Bus = transport.NewChanBus(cfg.Erasure, blockSeed, inbox)
			if sealed {
				tap, err := bus.Endpoint(cfg.Terminals)
				if err != nil {
					return nil, err
				}
				ob := &tappedBus{Bus: bus, done: make(chan struct{})}
				go func() {
					defer close(ob.done)
					o := transport.NewObserver(BlockSession(blockSeed))
					for env := range tap.Recv() {
						o.Ingest(env)
					}
					o.Finish()
					tapped.Add(int64(o.SecretDims + o.UnknownDims))
				}()
				chain := auth.NewKeyChain([]byte("frame slab bootstrap"))
				chain.Ratchet(binary.BigEndian.AppendUint64(nil, uint64(block)))
				bus = transport.NewSealedBus(ob, chain, inbox)
			}
			in := NewInjector(bus)
			in.SlowMember(1, time.Millisecond)
			return in, nil
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(s, got); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("stream over sealed=%v buses differs from the reference", sealed)
		}
		if sealed && tapped.Load() == 0 {
			t.Fatal("the tap's observer decoded no round")
		}
	}
}

// TestFrameSlab: frames carved from a slab are exact-capacity encodings
// that stay intact until rewind, the slab grows by chunks only until one
// block's frames fit, and rewind zeroes every frame.
func TestFrameSlab(t *testing.T) {
	x := &wire.XPacket{Header: wire.Header{Type: wire.TypeX, Session: 7}, Payload: make([]byte, 100)}
	s := frameSlab{chunk: 3 * wire.FrameLen(x)}
	big := &wire.ZPacket{Header: wire.Header{Type: wire.TypeZ}, Payload: make([]byte, 4*s.chunk)} // outgrows a chunk
	frames := make([][]byte, 0, 11)
	block := func() {
		frames = frames[:0]
		for i := range 10 {
			x.Seq, x.Payload[0] = uint32(i), byte(i+1)
			frames = append(frames, s.marshal(x))
		}
		frames = append(frames, s.marshal(big))
	}
	check := func(b int) {
		for i, f := range frames[:10] {
			x.Seq, x.Payload[0] = uint32(i), byte(i+1)
			if !bytes.Equal(f, wire.Marshal(x)) || cap(f) != len(f) {
				t.Fatalf("block %d frame %d: overwritten, or capacity %d beyond its %d bytes", b, i, cap(f), len(f))
			}
		}
	}
	block() // the first block sizes the slab
	check(0)
	for b := 1; b < 3; b++ {
		s.rewind()
		for i, c := range s.chunks {
			if len(c) != 0 || slices.ContainsFunc(c[:cap(c)], func(v byte) bool { return v != 0 }) {
				t.Fatalf("chunk %d not rewound to zero", i)
			}
		}
		if n := testing.AllocsPerRun(1, func() { s.rewind(); block() }); n != 0 {
			t.Fatalf("block %d: the slab allocated %v times after the first block", b, n)
		}
		check(b)
	}
}
