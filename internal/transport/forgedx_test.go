package transport

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunNodeDropsForgedEndOfX: an end-of-X beacon claiming 2^26
// x-packets, sent to a member before its leader's round, must not size the
// member's reception set and report (16.8 MB when it did). The member
// waits for the leader's own beacon, and both derive the same secret.
func TestRunNodeDropsForgedEndOfX(t *testing.T) {
	bus := NewChanBus(0.4, 3, DefaultInbox)
	defer bus.Close()
	cfg := baseNodeConfig(2)
	cfg.Rounds, cfg.Rotate = 1, false
	eps := make([]Endpoint, 3) // 2: the forger
	for i := range eps {
		eps[i], _ = bus.Endpoint(i)
	}
	h := wire.Header{Type: wire.TypeBeacon, Session: cfg.Session}
	if err := eps[2].SendCtrl(wire.Marshal(&wire.Beacon{Header: h, Kind: wire.BeaconEndOfX, Value: 1 << 26})); err != nil {
		t.Fatal(err)
	}
	var res [2]*NodeResult
	var errs [2]error
	n := allocated(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			nc := cfg
			nc.Self = 1
			res[1], errs[1] = RunNode(context.Background(), eps[1], nc)
		}()
		res[0], errs[0] = RunNode(context.Background(), eps[0], cfg)
		<-done
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if string(res[0].Secret) != string(res[1].Secret) || res[1].Rounds != 1 {
		t.Fatalf("member: %d rounds, secret %x; leader's %x", res[1].Rounds, res[1].Secret, res[0].Secret)
	}
	if n >= 1<<20 {
		t.Fatalf("the session allocated %d bytes", n)
	}
}

// TestObserverCapsForgedXCount: neither an end-of-X beacon nor an
// x-packet claiming 2^22 x-packets may size the observer's matrices
// (about 8 MB each when they did). The round is scored over the one
// x-packet it holds.
func TestObserverCapsForgedXCount(t *testing.T) {
	const session = 5
	h := func(t wire.Type) wire.Header { return wire.Header{Type: t, Session: session} }
	for _, forged := range []wire.Message{
		&wire.Beacon{Header: h(wire.TypeBeacon), Kind: wire.BeaconEndOfX, Value: 1 << 22},
		&wire.XPacket{Header: h(wire.TypeX), Seq: 1 << 22, Payload: make([]byte, 4)},
	} {
		o := NewObserver(session)
		n := allocated(func() {
			for _, m := range []wire.Message{
				&wire.XPacket{Header: h(wire.TypeX), Seq: 0, Payload: make([]byte, 4)},
				forged,
				&wire.YAnnounce{Header: h(wire.TypeYAnnounce), Classes: []wire.ClassBatch{{XIDs: []uint32{0}, Coeffs: [][]uint16{{1}}}}},
				&wire.SAnnounce{Header: h(wire.TypeSAnnounce), Coeffs: [][]uint16{{1}}},
			} {
				o.Ingest(Env{Frame: wire.Marshal(m), Reliable: m.Hdr().Type != wire.TypeX})
			}
		})
		if n >= 1<<20 || o.SecretDims != 1 {
			t.Fatalf("%T: %d bytes allocated, %d secret dims scored", forged, n, o.SecretDims)
		}
	}
}

// TestObserverCapsForgedYRows: a y-announce of more rows than the round
// has x-packets may not size the observer's matrices. 16,000 empty rows
// over 4,000 x-packets asked for 128 MB when it did; the round is
// skipped.
func TestObserverCapsForgedYRows(t *testing.T) {
	const session, rows, numX = 5, 16000, 4000
	h := func(t wire.Type) wire.Header { return wire.Header{Type: t, Session: session} }
	o := NewObserver(session)
	n := allocated(func() {
		for _, m := range []wire.Message{
			&wire.XPacket{Header: h(wire.TypeX), Seq: numX - 1, Payload: make([]byte, 4)},
			&wire.YAnnounce{Header: h(wire.TypeYAnnounce), Classes: []wire.ClassBatch{{Coeffs: make([][]uint16, rows)}}},
			&wire.SAnnounce{Header: h(wire.TypeSAnnounce), Coeffs: [][]uint16{{1}}},
		} {
			o.Ingest(Env{Frame: wire.Marshal(m), Reliable: m.Hdr().Type != wire.TypeX})
		}
	})
	if n >= 16<<20 || o.SecretDims != 0 {
		t.Fatalf("%d bytes allocated, %d secret dims scored", n, o.SecretDims)
	}
}
