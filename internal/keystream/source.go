package keystream

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/packet"
	"repro/internal/radio"
)

// BlockSeed derives block b's seed from the stream seed. Every value a
// block's bytes depend on (x-payload rng, erasure coins) is keyed off
// this, which is what makes blocks independently re-derivable.
func BlockSeed(streamSeed, block int64) int64 {
	return int64(radio.Mix64(radio.Mix64(uint64(streamSeed)) ^ uint64(block)))
}

// BlockSession is the wire session id a block's frames carry: the low 32
// bits of its block seed. An observer tapping a block's bus filters on it.
func BlockSession(blockSeed int64) uint32 { return uint32(uint64(blockSeed)) }

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
// sequential loop — no bus, no goroutines, no pipeline — straight from
// the radio.Delivered schedule. It is the differential-test oracle the
// pipelined engine must match byte for byte.
func ReferenceBlock(cfg Config, idx int64, dst []byte) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := blockLeader(&cfg, idx)
	a := newArena(&cfg) // for its planning only
	pl := new(core.Planner)
	written := 0
	consecAborts := 0
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		rng := rand.New(rand.NewSource(blockSeed + int64(r)*65537 + int64(leader)))
		batch := packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes)
		xSym := make([][]core.Sym, cfg.XPerRound)
		for i, pkt := range batch {
			xSym[i] = gf.Symbols16(pkt.Payload)
		}
		plan := a.roundPlan(pl, blockSeed, r, leader)
		if plan.L == 0 {
			consecAborts++
			if consecAborts >= cfg.MaxAbortRounds {
				return fmt.Errorf("keystream: reference block %d: %d consecutive unproductive rounds", idx, consecAborts)
			}
			continue
		}
		consecAborts = 0
		lr := core.ComputeLeaderRound(nil, plan, xSym)
		written += copy(dst[written:], core.SecretBytes(lr.Secret))
	}
	if written < len(dst) {
		return fmt.Errorf("keystream: reference block %d underrun (%d/%d)", idx, written, len(dst))
	}
	return nil
}
