package keystream

import (
	"bytes"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestXPayloadsKeyedBeyond31Bits: block seeds s and s + (2^31−1) give a
// block different x-payloads. math/rand reduces its seed mod 2^31−1, so
// a generator seeded from the block seed gave both blocks the same
// payloads, and one overheard payload let a 2^31 search recover every
// round of the block. The two stream seeds are chosen so that their
// block 0 seeds differ by exactly 2^31−1. A tap on a bus that erases
// nothing records the payloads the leader broadcasts in round 0, and
// each block must equal ReferenceBlock's, which draws its payloads from
// the same generator.
func TestXPayloadsKeyedBeyond31Bits(t *testing.T) {
	const m = 1<<31 - 1
	s1 := int64(20261019)
	s2 := int64(unmix64(unmix64(uint64(BlockSeed(s1, 0)) + m)))
	if d := BlockSeed(s2, 0) - BlockSeed(s1, 0); d != m {
		t.Fatalf("block seeds differ by %d, want %d", d, m)
	}
	p1, p2 := overheardRound0(t, s1), overheardRound0(t, s2)
	for i := range p1 {
		if bytes.Equal(p1[i], p2[i]) {
			t.Fatalf("x-payload %d of round 0 is the same for block seeds s and s+(2^31−1)", i)
		}
	}
}

// overheardRound0 derives block 0 of a stream with the given seed over a
// tapped in-process bus that erases nothing, checks it against
// ReferenceBlock, and returns the x-payloads the tap heard in round 0.
// The bus's erasures do not move the bytes: the leader plans from the
// schedule, so only the members' verification sees the difference.
func overheardRound0(t *testing.T, seed int64) [][]byte {
	t.Helper()
	cfg := protoCfg(seed)
	heard := make([][]byte, cfg.XPerRound)
	cfg.NewBus = func(block, blockSeed int64, inbox int) (transport.Bus, error) {
		bus := transport.NewChanBus(0, blockSeed, inbox)
		tap, err := bus.Endpoint(cfg.Terminals)
		if err != nil {
			return nil, err
		}
		tb := &tappedBus{Bus: bus, done: make(chan struct{})}
		go func() {
			defer close(tb.done)
			var x wire.XPacket
			for env := range tap.Recv() {
				if block == 0 && wire.UnmarshalX(env.Frame, &x) == nil && x.Round == 0 && int(x.Seq) < len(heard) {
					heard[x.Seq] = bytes.Clone(x.Payload)
				}
			}
		}()
		return tb, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, ref := make([]byte, cfg.BlockSize), make([]byte, cfg.BlockSize)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if err := ReferenceBlock(cfg, 0, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("seed %d: block 0 differs from ReferenceBlock", seed)
	}
	for i, p := range heard {
		if p == nil {
			t.Fatalf("seed %d: the tap heard no x-packet %d in round 0", seed, i)
		}
	}
	return heard
}

// unmix64 inverts radio.Mix64, the splitmix64 finalizer: each xorshift
// and each odd multiplier is undone in reverse order.
func unmix64(x uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for i := uint(0); i < 64/k+1; i++ {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration mod 2^64
		inv := c
		for range 6 {
			inv *= 2 - c*inv
		}
		return inv
	}
	x = unshift(x, 31) * inverse(0x94d049bb133111eb)
	x = unshift(x, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(x, 30) - 0x9e3779b97f4a7c15
}
