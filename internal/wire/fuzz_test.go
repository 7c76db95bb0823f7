package wire

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzUnmarshal: the decoder must never panic or over-allocate, whatever
// bytes arrive — Eve is on this network, and the UDP bus feeds the parser
// raw datagrams. Every frame it accepts must re-marshal to itself, byte
// for byte, although decoded payloads alias the input frame, and PeekX
// must agree with it on x/non-x and on (round, seq). UnmarshalX must
// accept exactly the x frames Unmarshal accepts, decoding every field the
// same, and AppendMarshal must extend a prefix by exactly Marshal's frame.
// UnmarshalY, UnmarshalZ, UnmarshalS and UnmarshalBeacon, each decoding
// into a target another frame left dirty, must accept exactly the frames
// of their type Unmarshal accepts, to messages that re-marshal to the
// same frame. PeekHeader must accept every frame Unmarshal accepts, with
// its header.
// Runs its seed corpus under plain `go test`; use
// `go test -fuzz=FuzzUnmarshal ./internal/wire` to explore further.
func FuzzUnmarshal(f *testing.F) {
	// Seed with valid frames of every type plus degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x41})
	f.Add(Marshal(&XPacket{Header: Header{Type: TypeX}, Seq: 1, Payload: []byte{1, 2, 3}}))
	f.Add(Marshal(&XPacket{Header: Header{Type: TypeX, Round: 513}, Seq: 70000}))
	f.Add(Marshal(&AckReport{Header: Header{Type: TypeAck}, NumX: 9, Bitmap: []uint64{7}}))
	f.Add(Marshal(&YAnnounce{Header: Header{Type: TypeYAnnounce}, Classes: []ClassBatch{
		{XIDs: []uint32{1, 2}, Coeffs: [][]uint16{{3, 4}}},
	}}))
	f.Add(Marshal(&ZPacket{Header: Header{Type: TypeZ}, Index: 1, Coeffs: []uint16{5}, Payload: []byte{6}}))
	f.Add(Marshal(&YAnnounce{Header: Header{Type: TypeYAnnounce}, Classes: []ClassBatch{{}}}))
	f.Add(Marshal(&ZPacket{Header: Header{Type: TypeZ}}))
	f.Add(Marshal(&SAnnounce{Header: Header{Type: TypeSAnnounce}, Coeffs: [][]uint16{{1}}}))
	f.Add(Marshal(&SAnnounce{Header: Header{Type: TypeSAnnounce}, Coeffs: [][]uint16{{}, {2, 3}}}))
	f.Add(Marshal(&Beacon{Header: Header{Type: TypeBeacon}, Kind: BeaconEndOfX, Value: 90}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		var x XPacket
		errX := UnmarshalX(data, &x)
		if errX == nil {
			if got, ok := m.(*XPacket); err != nil || !ok || !reflect.DeepEqual(*got, x) {
				t.Fatalf("UnmarshalX decoded %+v; Unmarshal returned %#v, %v", x, m, err)
			}
		}
		y, z, s := dirtyTargets()
		b := &Beacon{Header: Header{Type: TypeBeacon, Round: 9}, Kind: BeaconRoundAbort, Value: 77}
		for _, c := range []struct {
			typ Type
			err error
			m   Message
		}{
			{TypeYAnnounce, UnmarshalY(data, y), y},
			{TypeZ, UnmarshalZ(data, z), z},
			{TypeSAnnounce, UnmarshalS(data, s), s},
			{TypeBeacon, UnmarshalBeacon(data, b), b},
		} {
			want := err == nil && m.Hdr().Type == c.typ
			if (c.err == nil) != want {
				t.Fatalf("in-place %v decode: %v; Unmarshal returned %#v, %v", c.typ, c.err, m, err)
			}
			if want && string(Marshal(c.m)) != string(data) {
				t.Fatalf("%v decoded in place does not re-marshal to its frame:\n in: %x\nout: %x", c.typ, data, Marshal(c.m))
			}
		}
		if err != nil {
			return
		}
		if _, isX := m.(*XPacket); isX != (errX == nil) {
			t.Fatalf("Unmarshal decoded a %v; UnmarshalX: %v", m.Hdr().Type, errX)
		}
		if m == nil {
			t.Fatal("nil message without error")
		}
		if h, err := PeekHeader(data); err != nil || h != *m.Hdr() {
			t.Fatalf("PeekHeader = %+v, %v; Unmarshal decoded header %+v", h, err, *m.Hdr())
		}
		if again := Marshal(m); string(again) != string(data) {
			t.Fatalf("accepted frame does not re-marshal to itself:\n in: %x\nout: %x", data, again)
		}
		prefix := []byte("prefix")
		if got := AppendMarshal(prefix, m); string(got) != string(prefix)+string(data) {
			t.Fatalf("AppendMarshal(prefix, m) = %x, want prefix + %x", got, data)
		}
		round, seq, isX := PeekX(data)
		xp, wantX := m.(*XPacket)
		if isX != wantX {
			t.Fatalf("PeekX says x=%v for a decoded %v", isX, m.Hdr().Type)
		}
		if isX && (round != xp.Round || seq != xp.Seq) {
			t.Fatalf("PeekX = (round %d, seq %d), decoded (%d, %d)", round, seq, xp.Round, xp.Seq)
		}
	})
}

// dirtyTargets returns in-place decode targets holding another frame's
// fields, with slices longer than most frames need.
func dirtyTargets() (*YAnnounce, *ZPacket, *SAnnounce) {
	rows := func() [][]uint16 { return [][]uint16{{1, 2, 3, 4}, {5, 6, 7, 8}, {9}} }
	h := Header{Type: TypeBeacon, From: 9, Session: 99, Round: 999}
	return &YAnnounce{Header: h, Classes: []ClassBatch{{XIDs: []uint32{1, 2, 3, 4}, Coeffs: rows()}, {XIDs: []uint32{5}, Coeffs: rows()}}},
		&ZPacket{Header: h, Index: 7, Coeffs: []uint16{1, 2, 3, 4, 5, 6}, Payload: []byte{1, 2, 3}},
		&SAnnounce{Header: h, Coeffs: rows()}
}

func TestUnmarshalRandomBytesNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(256)
		b := make([]byte, n)
		rng.Read(b)
		// Bias some trials toward plausible frames: right magic/version,
		// valid type byte, garbage after.
		if trial%3 == 0 && n >= 4 {
			b[0], b[1], b[2] = 0x54, 0x41, Version
			b[3] = byte(1 + rng.Intn(6))
		}
		_, _ = Unmarshal(b) // must not panic
	}
}

func TestUnmarshalMutatedValidFrames(t *testing.T) {
	// Take valid frames, apply random mutations, fix the CRC so parsing
	// reaches the body decoders, and require clean errors (or clean
	// successes) — never panics.
	rng := rand.New(rand.NewSource(7331))
	frames := [][]byte{
		Marshal(&YAnnounce{Header: Header{Type: TypeYAnnounce}, Classes: []ClassBatch{
			{XIDs: []uint32{1, 2, 3}, Coeffs: [][]uint16{{3, 4, 5}, {6, 7, 8}}},
		}}),
		Marshal(&ZPacket{Header: Header{Type: TypeZ}, Index: 1, Coeffs: []uint16{5, 6}, Payload: []byte{6, 7, 8}}),
		Marshal(&AckReport{Header: Header{Type: TypeAck}, NumX: 64, Bitmap: []uint64{1, 2}}),
	}
	for trial := 0; trial < 3000; trial++ {
		src := frames[trial%len(frames)]
		b := append([]byte(nil), src...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b)-4)] = byte(rng.Intn(256))
		}
		inner := b[:len(b)-4]
		crc := crc32ChecksumIEEE(inner)
		b[len(b)-4] = byte(crc >> 24)
		b[len(b)-3] = byte(crc >> 16)
		b[len(b)-2] = byte(crc >> 8)
		b[len(b)-1] = byte(crc)
		_, _ = Unmarshal(b) // must not panic
	}
}
