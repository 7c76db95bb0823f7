package transport

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// forgedRound is a round-0 session whose x-packets carry 4- and 6-byte
// payloads, with an end-of-X beacon and y- and s-announces that combine
// both: one forged datagram on an unauthenticated bus can carry them all.
func forgedRound(session uint32) []wire.Message {
	h := func(t wire.Type) wire.Header { return wire.Header{Type: t, Session: session} }
	return []wire.Message{
		&wire.XPacket{Header: h(wire.TypeX), Seq: 0, Payload: make([]byte, 4)},
		&wire.XPacket{Header: h(wire.TypeX), Seq: 1, Payload: make([]byte, 6)},
		&wire.Beacon{Header: h(wire.TypeBeacon), Kind: wire.BeaconEndOfX, Value: 2},
		&wire.YAnnounce{Header: h(wire.TypeYAnnounce), Classes: []wire.ClassBatch{{XIDs: []uint32{0, 1}, Coeffs: [][]uint16{{1, 1}}}}},
		&wire.SAnnounce{Header: h(wire.TypeSAnnounce), Coeffs: [][]uint16{{1}}},
	}
}

// TestForgedPayloadWidthsDropped: a round whose x-packets hold two
// payload lengths must not panic the observer scoring it or the member
// combining it. The observer drops a payload of another length than the
// round's first; a member drops one of another length than the
// session's. Combining both widths panicked (in eve, and in the GF
// kernel's row-length check).
func TestForgedPayloadWidthsDropped(t *testing.T) {
	const session = 777
	o := NewObserver(session)
	for _, m := range forgedRound(session) {
		o.Ingest(Env{Frame: wire.Marshal(m), Reliable: m.Hdr().Type != wire.TypeX})
	}
	o.Finish()

	bus := NewChanBus(0, 1, DefaultInbox)
	defer bus.Close()
	forger, _ := bus.Endpoint(0)
	member, _ := bus.Endpoint(1)
	for _, m := range forgedRound(session) {
		if m.Hdr().Type == wire.TypeX {
			forger.SendData(wire.Marshal(m))
		} else {
			forger.SendCtrl(wire.Marshal(m))
		}
	}
	cfg := NodeConfig{
		Config:  core.Config{Terminals: 2, XPerRound: 2, PayloadBytes: 4, Rounds: 1, Seed: 1},
		Self:    1,
		Session: session,
		Timeout: 200 * time.Millisecond,
	}
	res, err := RunNode(context.Background(), member, cfg)
	if err == nil && len(res.Secret) > 0 {
		t.Fatalf("a secret from a round missing its 6-byte x-packet: %x", res.Secret)
	}
}
