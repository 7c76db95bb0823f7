package keystream

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/transport"
)

// protoCfg is the small protocol-engine shape the differential suite
// runs: GF(2^16) rounds, small blocks so multi-block ranges stay cheap.
func protoCfg(seed int64) Config {
	return Config{
		Terminals:    3,
		XPerRound:    64,
		PayloadBytes: 16,
		Erasure:      0.45,
		Seed:         seed,
		Rotate:       true,
		BlockSize:    512,
		Timeout:      30 * time.Second,
	}
}

// readRef derives blocks [0, n) through the plain sequential oracle.
func readRef(t *testing.T, cfg Config, nblocks int) []byte {
	t.Helper()
	full := make([]byte, nblocks*cfg.BlockSize)
	for i := 0; i < nblocks; i++ {
		if err := ReferenceBlock(cfg, int64(i), full[i*cfg.BlockSize:(i+1)*cfg.BlockSize]); err != nil {
			t.Fatalf("reference block %d: %v", i, err)
		}
	}
	return full
}

// TestStreamMatchesReference: bytes produced by the engine with two
// workers are byte-identical to the plain sequential oracle, both on the
// leader-only path a stream with no bus takes and on the one with
// members — the leader's round loop, soft report deadlines — over an
// in-process and a UDP bus. With no bus no member runs, so no member
// counter moves; over the in-process bus every member verifies every
// round, and over UDP at least 90% of them (a rare loopback drop).
func TestStreamMatchesReference(t *testing.T) {
	const nblocks = 6
	cfg := protoCfg(99)
	cfg.Workers = 2
	want := readRef(t, cfg, nblocks)
	for _, tc := range []struct {
		name   string
		newBus func(_, blockSeed int64, inbox int) (transport.Bus, error)
	}{
		{"leader-only", nil},
		{"chanbus", chanBus(cfg.Erasure)},
		{"udp", func(_, blockSeed int64, inbox int) (transport.Bus, error) {
			return transport.NewUDPBus(cfg.Erasure, blockSeed, inbox)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.NewBus = tc.newBus
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(s, got); err != nil {
				t.Fatal(err)
			}
			s.Close() // waits for in-flight derivations, so Stats counts them all
			if !bytes.Equal(got, want) {
				t.Fatal("stream bytes != sequential reference derivation")
			}
			st := s.Stats()
			if st.Blocks < nblocks {
				t.Fatalf("stats count %d blocks, want >= %d", st.Blocks, nblocks)
			}
			checked := st.VerifyOK + st.VerifyMismatch
			switch tc.name {
			case "leader-only":
				if checked != 0 || st.AckTimeouts != 0 || st.SkippedWaits != 0 || st.ShedFrames != 0 {
					t.Fatalf("member counters moved with no members: %+v", st)
				}
			case "chanbus":
				if st.VerifyOK == 0 || st.VerifyMismatch != 0 {
					t.Fatalf("verify mismatches with no fault injection: %+v", st)
				}
			default:
				if checked == 0 || float64(st.VerifyOK) < 0.9*float64(checked) {
					t.Fatalf("members verified %d of %d rounds, want >= 90%%: %+v", st.VerifyOK, checked, st)
				}
			}
		})
	}
}

// TestStreamOverUDPBus: the engine also runs over the loopback UDP bus.
// The bytes come from the schedule whatever the bus; because each UDP
// endpoint erases by the same coin the schedule uses, the members' own derivations
// verify too. The 10% allowance is for a rare loopback drop.
func TestStreamOverUDPBus(t *testing.T) {
	cfg := protoCfg(61)
	const nblocks = 4
	want := readRef(t, cfg, nblocks)
	cfg.NewBus = func(_, blockSeed int64, inbox int) (transport.Bus, error) {
		return transport.NewUDPBus(cfg.Erasure, blockSeed, inbox)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	s.Close() // waits for in-flight derivations, so Stats counts them all
	if !bytes.Equal(got, want) {
		t.Fatal("stream bytes over UDPBus != sequential reference derivation")
	}
	st := s.Stats()
	checked := st.VerifyOK + st.VerifyMismatch
	if checked == 0 || float64(st.VerifyOK) < 0.9*float64(checked) {
		t.Fatalf("members verified %d of %d rounds over UDPBus, want >= 90%%: %+v", st.VerifyOK, checked, st)
	}
}

// TestReadAtMatchesSequential: random-access reads at arbitrary
// (offset, length) — spanning block boundaries and short tails — return
// exactly the bytes a sequential read of the same range sees. Runs the
// protocol engine (GF(2^16)); TestReadAtMatchesSequentialGF8 covers the
// GF(2^8) source arm.
func TestReadAtMatchesSequential(t *testing.T) {
	cfg := protoCfg(7)
	const nblocks = 6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := make([]byte, nblocks*cfg.BlockSize)
	if _, err := io.ReadFull(s, full); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 64; trial++ {
		off := rng.Int63n(int64(len(full) - 1))
		n := 1 + rng.Intn(len(full)-int(off))
		got := make([]byte, n)
		if _, err := s.ReadAt(got, off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, full[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d, %d) != sequential bytes", off, n)
		}
	}

	// The deliberate edge shapes: exact block, boundary straddle, one-byte
	// tail, and a range ending exactly at a boundary.
	bsz := int64(cfg.BlockSize)
	for _, r := range []struct{ off, n int64 }{
		{0, bsz},
		{bsz - 1, 2},
		{bsz/2 + 1, bsz},
		{2*bsz - 1, 1},
		{bsz + 3, bsz - 3},
	} {
		got := make([]byte, r.n)
		if _, err := s.ReadAt(got, r.off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", r.off, r.n, err)
		}
		if !bytes.Equal(got, full[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d, %d) != sequential bytes", r.off, r.n)
		}
	}
}

// TestReadAtMatchesSequentialGF8 is the property test on the GF(2^8)
// source arm: cheap enough to sweep many more random ranges over a much
// larger address space.
func TestReadAtMatchesSequentialGF8(t *testing.T) {
	cfg := Config{
		Terminals: 2, XPerRound: 4, PayloadBytes: 4,
		Seed:      21,
		BlockSize: 4096,
		Source:    XOFSource8(21),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 64 << 10
	full := make([]byte, total)
	if _, err := io.ReadFull(s, full); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		off := rng.Int63n(total - 1)
		n := 1 + rng.Intn(int(total-off))
		got := make([]byte, n)
		if _, err := s.ReadAt(got, off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(got, full[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d, %d) != sequential bytes", off, n)
		}
	}
}

// TestRangeReader: the io.Reader view over [off, off+n) delivers exactly
// n bytes — including ranges that end mid-block — then io.EOF.
func TestRangeReader(t *testing.T) {
	cfg := protoCfg(42)
	const nblocks = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full := make([]byte, nblocks*cfg.BlockSize)
	if _, err := s.ReadAt(full, 0); err != nil {
		t.Fatal(err)
	}
	bsz := int64(cfg.BlockSize)
	for _, r := range []struct{ off, n int64 }{
		{0, 2*bsz + 17},
		{bsz - 5, 11},
		{3 * bsz, 1},
	} {
		got, err := io.ReadAll(s.RangeReader(r.off, r.n))
		if err != nil {
			t.Fatalf("RangeReader(%d, %d): %v", r.off, r.n, err)
		}
		if int64(len(got)) != r.n {
			t.Fatalf("RangeReader(%d, %d): got %d bytes", r.off, r.n, len(got))
		}
		if !bytes.Equal(got, full[r.off:r.off+r.n]) {
			t.Fatalf("RangeReader(%d, %d) != sequential bytes", r.off, r.n)
		}
	}
}

// TestRotationChangesBlockBytes: with Rotate the leader differs per
// block, and the same (seed, index) under different rotation settings
// yields different blocks — a cheap guard that the leader schedule is
// actually wired into derivation.
func TestRotationChangesBlockBytes(t *testing.T) {
	with := protoCfg(5)
	without := protoCfg(5)
	without.Rotate = false
	a := make([]byte, with.BlockSize)
	b := make([]byte, without.BlockSize)
	// Block 1's leader is terminal 1 with rotation, 0 without.
	if err := ReferenceBlock(with, 1, a); err != nil {
		t.Fatal(err)
	}
	if err := ReferenceBlock(without, 1, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("rotation did not change block 1's bytes")
	}
}
