package keystream

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/packet"
	"repro/internal/radio"
)

// BlockSeed derives block b's seed from the stream seed. The block's
// erasure schedule and its bus are keyed off it; its x-payloads are
// keyed by (stream seed, b) through packet.XKey. Both make blocks
// independently re-derivable.
func BlockSeed(streamSeed, block int64) int64 {
	return int64(radio.Mix64(radio.Mix64(uint64(streamSeed)) ^ uint64(block)))
}

// Format numbers how a stream's bytes follow from its Config. Journals
// and assignments that re-derive a stream elsewhere carry it, so a
// stream is never served under two formats. Format 1 keys every round's
// x-payloads with packet.XKey. Format 0, recorded before formats were
// numbered, drew them from math/rand seeded with
// BlockSeed + round·65537 + leader, which reduced every round to one of
// fewer than 2^31 payload streams; this build does not derive it.
const Format = 1

// sessionLabel separates block session ids from other hashes of the
// same numbers.
const sessionLabel = "thinair/block-session/v1"

// BlockSession is the wire session id block b's frames carry, a hash of
// (stream seed, b). An observer tapping a block's bus filters on it; it
// gives away 32 bits of a hash, not bits of the seed.
func BlockSession(seed, block int64) uint32 {
	var in [len(sessionLabel) + 16]byte
	b := append(in[:0], sessionLabel...)
	b = binary.BigEndian.AppendUint64(b, uint64(seed))
	b = binary.BigEndian.AppendUint64(b, uint64(block))
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint32(sum[:])
}

// XOFSource8 is a cheap deterministic block source built on the GF(2^8)
// kernel: a splitmix counter stream mixed by byte-field multiply-add
// passes. It exists so the stream's framing and offset arithmetic can be
// property-tested (and fuzzed) over the GF(2^8) kernel quickly, without
// running protocol rounds — the GF(2^16) coverage comes from the default
// protocol deriver.
func XOFSource8(seed int64) Source {
	f := gf.GF256()
	return func(_ *BlockContext, idx int64, dst []byte) error {
		bs := uint64(BlockSeed(seed, idx))
		var word [8]byte
		for i := 0; i < len(dst); i += 8 {
			binary.LittleEndian.PutUint64(word[:], radio.Mix64(bs^uint64(i)))
			copy(dst[i:], word[:])
		}
		// Two multiply-add passes over a rotation of the block, with
		// block-keyed nonzero coefficients: dst ^= c * rot1(dst0).
		tmp := make([]byte, len(dst))
		copy(tmp, dst[1:])
		if len(dst) > 0 {
			tmp[len(dst)-1] = dst[0]
		}
		f.AddMulSlice(dst, tmp, byte(bs)|1)
		f.AddMulSlice(dst, tmp, byte(bs>>8)|3)
		return nil
	}
}

// ReferenceBlock derives block idx of a protocol stream with a plain
// sequential loop — no bus, no goroutines, no reused buffers — straight
// from the radio.Delivered schedule. It is the differential-test oracle
// the engine must match byte for byte.
func ReferenceBlock(cfg Config, idx int64, dst []byte) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := blockLeader(&cfg, idx)
	a := newArena(&cfg) // for its planning only
	written := 0
	consecAborts := 0
	var g packet.XGen
	defer g.Zero()
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		plan := a.roundPlan(blockSeed, r, leader)
		if plan.L == 0 {
			consecAborts++
			if consecAborts >= cfg.MaxAbortRounds {
				return fmt.Errorf("keystream: reference block %d: %d consecutive unproductive rounds", idx, consecAborts)
			}
			continue
		}
		consecAborts = 0
		g.Round(cfg.Seed, idx, r, leader)
		x := make([][]byte, cfg.XPerRound)
		for i := range x {
			x[i] = make([]byte, cfg.PayloadBytes)
			g.Fill(x[i])
		}
		lr := core.ComputeLeaderRound(nil, plan, x)
		written += copy(dst[written:], slices.Concat(lr.Secret...))
	}
	if written < len(dst) {
		return fmt.Errorf("keystream: reference block %d underrun (%d/%d)", idx, written, len(dst))
	}
	return nil
}
