package transport_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/keystream"
	"repro/internal/transport"
)

// keygenConfig is a default cluster session's block stream: 3 terminals,
// 90 x-packets of 16 bytes a round at erasure 0.45, 4 KiB blocks.
func keygenConfig(seed int64) keystream.Config {
	return keystream.Config{Terminals: 3, Erasure: 0.45, XPerRound: 90, PayloadBytes: 16, Seed: seed,
		BlockSize: 4096, Workers: 1}
}

// deriveOver reads blocks of cfg's stream with every block on a bus from
// newBus, and returns the stream's stats and the buses, closed.
func deriveOver(t *testing.T, cfg keystream.Config, blocks int, newBus func(blockSeed int64, inbox int) (transport.Bus, error)) (keystream.Stats, []transport.Bus) {
	t.Helper()
	var mu sync.Mutex
	var buses []transport.Bus
	cfg.NewBus = func(_, blockSeed int64, inbox int) (transport.Bus, error) {
		b, err := newBus(blockSeed, inbox)
		if err == nil {
			mu.Lock()
			buses = append(buses, b)
			mu.Unlock()
		}
		return b, err
	}
	s, err := keystream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(s, make([]byte, blocks*cfg.BlockSize)); err != nil {
		t.Fatal(err)
	}
	s.Close() // every derivation done, its bus closed
	mu.Lock()
	defer mu.Unlock()
	return s.Stats(), buses
}

func newUDP(erasure float64) func(int64, int) (transport.Bus, error) {
	return func(blockSeed int64, inbox int) (transport.Bus, error) {
		return transport.NewUDPBus(erasure, blockSeed, inbox)
	}
}

// TestUDPBlockDatagramsPerRound bounds the datagrams a keystream round
// costs over a UDPBus at a default cluster session's shape. With a
// datagram per frame this test counted 252.8 a round: 187.8 data (the
// leader's 90 x frames and the hub's copies of them) and 65.1 others (6
// per control frame: the unit, its accept-ack, a forward and an ack per
// member). With a round's x frames and its announces each sent as one
// burst it counted 27.3: 3.0 data and 24.3 others, 6 for each of the
// round's 4 control units (end of X, two reports, the announces). With
// the end-of-X beacon leading the announce burst it counted about 21:
// 3.0 data and 18.2–18.4 others for the round's 3 control units (two
// reports, the announces). With every endpoint sending straight to the
// others it counts 14: 2 data (the x burst, once to each member) and 4
// per control unit (the unit to each of two receivers, and their acks).
// The bound leaves room for retransmissions on a loaded machine.
func TestUDPBlockDatagramsPerRound(t *testing.T) {
	const blocks, bound = 3, 60
	cfg := keygenConfig(17)
	st, buses := deriveOver(t, cfg, blocks, newUDP(cfg.Erasure))
	var data, other int64
	for _, b := range buses {
		d, o := transport.Datagrams(b.(*transport.UDPBus))
		data += d
		other += o
	}
	rounds := float64(st.Rounds)
	perRound := float64(data+other) / rounds
	t.Logf("%v rounds over %d blocks: %.1f data and %.1f other datagrams a round (%.1f in all), %d ack timeouts",
		rounds, blocks, float64(data)/rounds, float64(other)/rounds, perRound, st.AckTimeouts)
	if perRound > bound {
		t.Fatalf("%.1f datagrams a round, want at most %d", perRound, bound)
	}
}

// TestUDPBlockBitsMatchChanBus: BitsSent counts each frame's own bits,
// never datagram headers or length prefixes, so the same blocks cost the
// same bits over a UDPBus as over a ChanBus. The leader waits for every
// member's report (long AckWait and AckSlack), so each is sent before
// its block's bus closes and both buses carry the same frames.
func TestUDPBlockBitsMatchChanBus(t *testing.T) {
	const blocks = 2
	cfg := keygenConfig(23)
	cfg.AckWait, cfg.AckSlack = 10*time.Second, 10*time.Second
	bits := func(buses []transport.Bus) (n int64) {
		for _, b := range buses {
			n += b.BitsSent()
		}
		return n
	}
	stc, chans := deriveOver(t, cfg, blocks, func(blockSeed int64, inbox int) (transport.Bus, error) {
		return transport.NewChanBus(cfg.Erasure, blockSeed, inbox), nil
	})
	stu, udps := deriveOver(t, cfg, blocks, newUDP(cfg.Erasure))
	if stc.Rounds != stu.Rounds || stc.Rounds == 0 {
		t.Fatalf("%d rounds over ChanBus, %d over UDPBus", stc.Rounds, stu.Rounds)
	}
	if c, u := bits(chans), bits(udps); c != u {
		t.Fatalf("%d rounds: %d bits over ChanBus, %d over UDPBus", stc.Rounds, c, u)
	}
}
