package keystream

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// reorderBus holds back the leader's round-0 s-announce until the leader
// has sent round 2's y-announce: the order a UDP bus delivers in when the
// s-announce's first datagram is lost and its retransmission lands after
// the next rounds' announces.
type reorderBus struct {
	transport.Bus
}

func (b reorderBus) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := b.Bus.Endpoint(id)
	if err != nil || id != 0 {
		return ep, err
	}
	return &reorderEndpoint{Endpoint: ep}, nil
}

// reorderEndpoint is the leader's: only the block's round loop sends on
// it.
type reorderEndpoint struct {
	transport.Endpoint
	held []byte
}

// SendCtrl sends the burst without a round-0 s-announce, which it holds,
// and sends the held one after a burst carrying round 2's y-announce.
func (e *reorderEndpoint) SendCtrl(frame []byte, more ...[]byte) error {
	var burst [][]byte
	var release []byte
	for _, f := range append([][]byte{frame}, more...) {
		if h, err := wire.PeekHeader(f); err == nil {
			switch {
			case h.Type == wire.TypeSAnnounce && h.Round == 0:
				e.held = f
				continue
			case h.Type == wire.TypeYAnnounce && h.Round == 2:
				release, e.held = e.held, nil
			}
		}
		burst = append(burst, f)
	}
	if len(burst) > 0 {
		if err := e.Endpoint.SendCtrl(burst[0], burst[1:]...); err != nil {
			return err
		}
	}
	if release != nil {
		return e.Endpoint.SendCtrl(release)
	}
	return nil
}

// TestMemberSurvivesReorderedAnnounce: when a member's round-0
// s-announce arrives after round 2's y-announce, round 2's receive half
// has already taken the scratch round 0's elimination needs. The member
// must count round 0 as a mismatch — not eliminate over round 2's state,
// which can index past round 0's y-packets and panic — and the block's
// bytes stay the schedule's.
func TestMemberSurvivesReorderedAnnounce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := protoCfg(seed)
		cfg.Rotate = false
		cfg.BlockSize = 4096 // several rounds per block
		cfg.NewBus = func(_, blockSeed int64, inbox int) (transport.Bus, error) {
			return reorderBus{Bus: transport.NewChanBus(cfg.Erasure, blockSeed, inbox)}, nil
		}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		bc := workerContext(&cfg)
		got, want := make([]byte, cfg.BlockSize), make([]byte, cfg.BlockSize)
		if err := bc.deriveProtocol(0, got); err != nil {
			t.Fatal(err)
		}
		if err := ReferenceBlock(cfg, 0, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: block bytes differ from the reference", seed)
		}
		if bc.es.rounds.Load() < 3 || bc.es.verifyMismatch.Load() == 0 {
			t.Fatalf("seed %d: %d rounds, %d mismatches; want round 0 to mismatch", seed, bc.es.rounds.Load(), bc.es.verifyMismatch.Load())
		}
	}
}

// forgedEndOfXBus sends, ahead of the leader's first control burst, an
// end-of-X beacon in the leader's name that claims 2^26 x-packets.
type forgedEndOfXBus struct {
	transport.Bus
}

func (b forgedEndOfXBus) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := b.Bus.Endpoint(id)
	if err != nil || id != 0 {
		return ep, err
	}
	return &forgingEndpoint{Endpoint: ep}, nil
}

type forgingEndpoint struct {
	transport.Endpoint
	forged bool
}

func (e *forgingEndpoint) SendCtrl(frame []byte, more ...[]byte) error {
	if !e.forged {
		e.forged = true
		h, err := wire.PeekHeader(frame)
		if err != nil {
			return err
		}
		if err := e.Endpoint.SendCtrl(wire.Marshal(&wire.Beacon{Header: h, Kind: wire.BeaconEndOfX, Value: 1 << 26})); err != nil {
			return err
		}
	}
	return e.Endpoint.SendCtrl(frame, more...)
}

// TestMemberDropsForgedEndOfX: a member takes a round's x count from the
// Config, so a forged end-of-X beacon claiming 2^26 x-packets must not
// size its reception set and report (16 MB when it did). The block
// derives under 1 MB, its bytes are the reference's, and the members
// still verify every round.
func TestMemberDropsForgedEndOfX(t *testing.T) {
	cfg := protoCfg(9)
	cfg.Rotate = false
	cfg.NewBus = func(_, blockSeed int64, inbox int) (transport.Bus, error) {
		return forgedEndOfXBus{Bus: transport.NewChanBus(cfg.Erasure, blockSeed, inbox)}, nil
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	bc := workerContext(&cfg)
	got, want := make([]byte, cfg.BlockSize), make([]byte, cfg.BlockSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := bc.deriveProtocol(0, got); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := ReferenceBlock(cfg, 0, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("block bytes differ from the reference")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("the block allocated %d bytes", n)
	}
	if ok, bad := bc.es.verifyOK.Load(), bc.es.verifyMismatch.Load(); ok == 0 || bad != 0 {
		t.Fatalf("%d rounds verified, %d mismatched", ok, bad)
	}
}
