package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/radio"
	"repro/internal/wire"
)

// recvN reads n frames from ep, or fails the test after a second.
func recvN(t testing.TB, ep Endpoint, n int) []Env {
	t.Helper()
	envs := make([]Env, 0, n)
	for len(envs) < n {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				t.Fatalf("inbox closed after %d of %d frames", len(envs), n)
			}
			envs = append(envs, env)
		case <-time.After(time.Second):
			t.Fatalf("got %d of %d frames", len(envs), n)
		}
	}
	return envs
}

// udpEndpoints attaches endpoints 0..n-1 to a fresh UDP bus.
func udpEndpoints(t testing.TB, erasure float64, n int) (*UDPBus, []Endpoint) {
	t.Helper()
	bus, err := NewUDPBus(erasure, 1, DefaultInbox)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bus.Close() })
	eps := make([]Endpoint, n)
	for i := range eps {
		if eps[i], err = bus.Endpoint(i); err != nil {
			t.Fatal(err)
		}
	}
	return bus, eps
}

// xBurst returns n x frames of round 0 with payload bytes each.
func xBurst(n, payload int) [][]byte {
	burst := make([][]byte, n)
	for i := range burst {
		h := wire.Header{Type: wire.TypeX, Session: 1}
		burst[i] = wire.Marshal(&wire.XPacket{Header: h, Seq: uint32(i), Payload: bytes.Repeat([]byte{byte(i)}, payload)})
	}
	return burst
}

// TestUDPBurstFramesInOrder: a control burst reaches every other endpoint
// whole and in order, each frame its own reliable Env, as one ARQ unit:
// one control datagram from the sender. BitsSent counts the frames' own
// bits, not headers or length prefixes.
func TestUDPBurstFramesInOrder(t *testing.T) {
	bus, eps := udpEndpoints(t, 0, 3)
	burst := [][]byte{[]byte("first"), {}, []byte("third frame")}
	if err := eps[0].SendCtrl(burst[0], burst[1:]...); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps[1:] {
		for i, env := range recvN(t, ep, len(burst)) {
			if !env.Reliable || env.From != 0 || !bytes.Equal(env.Frame, burst[i]) || cap(env.Frame) != len(env.Frame) {
				t.Fatalf("endpoint %d frame %d: %+v (cap %d), want %q", ep.ID(), i, env, cap(env.Frame), burst[i])
			}
		}
	}
	if got, want := bus.BitsSent(), int64(len("first")+len("third frame"))*8; got != want {
		t.Fatalf("BitsSent %d, want %d", got, want)
	}
	if units := eps[0].(*udpEndpoint).seq.Load(); units != 1 {
		t.Fatalf("a 3-frame control burst took %d ARQ units, want 1", units)
	}
}

// TestUDPBurstSplitsAtCap: a burst larger than one datagram goes out in
// as few datagrams as the cap allows, and every frame still arrives, in
// order.
func TestUDPBurstSplitsAtCap(t *testing.T) {
	_, eps := udpEndpoints(t, 0, 2)
	burst := make([][]byte, 5)
	for i := range burst { // two fill a datagram exactly
		burst[i] = bytes.Repeat([]byte{byte(i + 1)}, (maxDatagram-udpHeader)/2-udpEntry)
	}
	if err := eps[0].SendCtrl(burst[0], burst[1:]...); err != nil {
		t.Fatal(err)
	}
	for i, env := range recvN(t, eps[1], len(burst)) {
		if !bytes.Equal(env.Frame, burst[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if units := eps[0].(*udpEndpoint).seq.Load(); units != 3 {
		t.Fatalf("5 frames of half a datagram took %d ARQ units, want 3", units)
	}
	if err := eps[0].SendData(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("a frame over the cap was accepted")
	}
}

// TestUDPDropsMalformedDatagrams: a data or control datagram whose
// entries run past its end is dropped whole by the endpoint it reaches
// (no frame of it is delivered, no control unit acked), even from a
// member's own address, and the bus keeps working.
func TestUDPDropsMalformedDatagrams(t *testing.T) {
	bus, eps := udpEndpoints(t, 0, 2)
	from, to := eps[0].(*udpEndpoint), eps[1].(*udpEndpoint)
	for _, kind := range []byte{kindData, kindCtrl} {
		dg := appendEntry(putHeader(make([]byte, udpHeader), kind, 0, 99), []byte("whole"))
		dg = binary.BigEndian.AppendUint16(dg, 40) // 40 bytes promised, 3 follow
		dg = append(dg, "cut"...)
		if _, err := from.conn.WriteToUDPAddrPort(dg, to.addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[0].SendCtrl([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if env := recvN(t, eps[1], 1)[0]; string(env.Frame) != "after" {
		t.Fatalf("got %q first: a malformed datagram's frame was delivered", env.Frame)
	}
	if bits := bus.BitsSent(); bits != int64(len("after"))*8 {
		t.Fatalf("BitsSent %d counts a malformed datagram", bits)
	}
}

// TestUDPBurstAllocsPerDatagram: a burst of data frames allocates per
// datagram, not per frame, at the sender (its datagram buffer is reused)
// and at the receivers (one copy of the frames each keeps, which its
// frames are views of). A 64-frame burst to two receivers is 2
// datagrams, one to each.
func TestUDPBurstAllocsPerDatagram(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	const (
		frames, bursts = 64, 200
		datagrams      = 2
	)
	_, eps := udpEndpoints(t, 0, 3)
	burst := xBurst(frames, 16)
	round := func() {
		if err := eps[0].SendData(burst[0], burst[1:]...); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps[1:] {
			for i := 0; i < frames; i++ {
				<-ep.Recv()
			}
		}
	}
	for i := 0; i < 20; i++ { // warm the reused buffers
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < bursts; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / bursts
	t.Logf("%.2f objects per %d-frame burst (%d datagrams)", objs, frames, datagrams)
	if objs > 2*datagrams {
		t.Fatalf("%.2f objects per %d-frame burst; want at most %d, two per datagram", objs, frames, 2*datagrams)
	}
}

// FuzzUDPFrameList: an endpoint's split (deliver) handles any datagram
// body without a panic, keeping exactly the data frames the erasure coin
// gives it; and any frame list within the cap round-trips through the
// sender's packing and the split, in order.
func FuzzUDPFrameList(f *testing.F) {
	f.Add([]byte{0, 3, 'a', 'b', 'c', 0, 0}, []byte{0, 5, 1, 0})
	f.Add([]byte{0, 9, 'x'}, []byte{})
	f.Add([]byte{}, []byte{255, 255, 255, 255, 0, 1})
	var xs []byte
	for _, x := range xBurst(8, 4) {
		xs = appendEntry(xs, x)
	}
	f.Add(xs, []byte{0, 1})
	f.Fuzz(func(t *testing.T, body, sizes []byte) {
		// Arbitrary bytes as a received data datagram's body.
		if n := countEntries(body); n > 0 {
			var want [][]byte
			for rest := body; len(rest) > 0; {
				var frame []byte
				frame, rest = nextEntry(rest)
				if round, seq := coinKey(frame); radio.Delivered(1, round, seq, 1, 0.5) {
					want = append(want, frame)
				}
			}
			ep := &udpEndpoint{id: 1, bus: &UDPBus{erasure: 0.5, seed: 1}, ch: make(chan Env, n)}
			ep.deliver(0, false, bytes.Clone(body))
			if len(ep.ch) != len(want) {
				t.Fatalf("kept %d of %d frames, the coin gives %d", len(ep.ch), n, len(want))
			}
			for i := range want {
				if env := <-ep.ch; env.Reliable || !bytes.Equal(env.Frame, want[i]) || cap(env.Frame) != len(env.Frame) {
					t.Fatalf("kept frame %d: %+v, want %q", i, env, want[i])
				}
			}
			if got := split(t, body, n); len(got) != n {
				t.Fatalf("split %d frames, countEntries %d", len(got), n)
			}
		}

		// A frame list within the cap, over a few datagrams: each pair of
		// size bytes is one frame's length, its bytes body repeated.
		var frames [][]byte
		for i, total := 0, 0; i+1 < len(sizes) && total < 3*maxDatagram; i += 2 {
			n := int(binary.BigEndian.Uint16(sizes[i:])) % (maxFrame + 1)
			fr := make([]byte, n)
			for j := 0; len(body) > 0 && j < n; j += len(body) {
				copy(fr[j:], body)
			}
			frames = append(frames, fr)
			total += n
		}
		if len(frames) == 0 {
			return
		}
		var got [][]byte
		var dg []byte
		for i := 0; i < len(frames); {
			var next int
			dg, next = packEntries(putHeader(make([]byte, udpHeader), kindCtrl, 0, 0), frames[0], frames[1:], i)
			if next == i || len(dg) > maxDatagram {
				t.Fatalf("packed frames %d..%d into %d bytes", i, next, len(dg))
			}
			got = append(got, split(t, dg[udpHeader:], next-i)...)
			i = next
		}
		if len(got) != len(frames) {
			t.Fatalf("round trip: %d frames, want %d", len(got), len(frames))
		}
		for i := range got {
			if !bytes.Equal(got[i], frames[i]) {
				t.Fatalf("round trip: frame %d differs", i)
			}
		}
	})
}

// split runs an endpoint's split of a datagram body holding n entries and
// returns the frames it delivers.
func split(t *testing.T, body []byte, n int) [][]byte {
	t.Helper()
	ep := &udpEndpoint{bus: &UDPBus{}, ch: make(chan Env, n)}
	ep.deliver(0, true, bytes.Clone(body))
	if len(ep.ch) != n || ep.bus.shed.Load() != 0 {
		t.Fatalf("delivered %d of %d frames, shed %d", len(ep.ch), n, ep.bus.shed.Load())
	}
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		env := <-ep.ch
		if cap(env.Frame) != len(env.Frame) {
			t.Fatalf("frame %d: capacity %d past its length %d", i, cap(env.Frame), len(env.Frame))
		}
		frames = append(frames, env.Frame)
	}
	return frames
}

// TestUDPDropsForeignSender: an endpoint takes a datagram only from the
// address recorded for the id it names. A raw socket's well-formed
// control datagram naming id 0 is neither delivered nor acked, and does
// not mark its sequence number seen: endpoint 0's own first unit, under
// the same number, still arrives.
func TestUDPDropsForeignSender(t *testing.T) {
	_, eps := udpEndpoints(t, 0, 2)
	raw, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	forged := appendEntry(putHeader(make([]byte, udpHeader), kindCtrl, 0, 1), []byte("forged"))
	if _, err := raw.WriteToUDPAddrPort(forged, eps[1].(*udpEndpoint).addr); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].SendCtrl([]byte("for 1")); err != nil {
		t.Fatal(err)
	}
	if env := recvN(t, eps[1], 1)[0]; string(env.Frame) != "for 1" {
		t.Fatalf("endpoint 1 got %q", env.Frame)
	}
	// Endpoint 1 read the forged datagram before endpoint 0's: any ack
	// for it has been written.
	if err := raw.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n, err := raw.Read(make([]byte, 64)); err == nil {
		t.Fatalf("the raw socket got a %d-byte reply", n)
	}
}
