package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

func crc32ChecksumIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", m.Hdr().Type, err)
	}
	if !messagesEquivalent(m, got) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	roundTrip(t, &XPacket{
		Header:  Header{Type: TypeX, From: 3, Session: 0xdeadbeef, Round: 7},
		Seq:     42,
		Payload: []byte{1, 2, 3, 255},
	})
	roundTrip(t, &AckReport{
		Header: Header{Type: TypeAck, From: 1, Session: 9, Round: 2},
		NumX:   100,
		Bitmap: []uint64{0xffffffffffffffff, 0xf},
	})
	roundTrip(t, &YAnnounce{
		Header: Header{Type: TypeYAnnounce, From: 0, Session: 1, Round: 0},
		Classes: []ClassBatch{
			{XIDs: []uint32{0, 5, 9}, Coeffs: [][]uint16{{1, 2, 3}, {4, 5, 6}}},
			{XIDs: []uint32{7}, Coeffs: [][]uint16{{9}}},
		},
	})
	roundTrip(t, &ZPacket{
		Header:  Header{Type: TypeZ, From: 0, Session: 1, Round: 3},
		Index:   2,
		Coeffs:  []uint16{1, 0, 65535},
		Payload: []byte{0xaa, 0xbb},
	})
	roundTrip(t, &SAnnounce{
		Header: Header{Type: TypeSAnnounce, From: 0, Session: 1, Round: 3},
		Coeffs: [][]uint16{{1, 2}, {3, 4}, {0, 0}},
	})
	roundTrip(t, &Beacon{
		Header: Header{Type: TypeBeacon, From: 2, Session: 1, Round: 3},
		Kind:   BeaconEndOfX,
		Value:  90,
	})
}

func TestRoundTripEmptyVectors(t *testing.T) {
	roundTrip(t, &XPacket{Header: Header{Type: TypeX}, Payload: []byte{}})
	roundTrip(t, &YAnnounce{Header: Header{Type: TypeYAnnounce}, Classes: []ClassBatch{}})
	roundTrip(t, &SAnnounce{Header: Header{Type: TypeSAnnounce}, Coeffs: [][]uint16{}})
	roundTrip(t, &AckReport{Header: Header{Type: TypeAck}, Bitmap: []uint64{}})
	roundTrip(t, &ZPacket{Header: Header{Type: TypeZ}, Coeffs: []uint16{}, Payload: []byte{}})
}

func TestCorruptionDetected(t *testing.T) {
	m := &XPacket{Header: Header{Type: TypeX, From: 1}, Seq: 5, Payload: []byte{1, 2, 3}}
	b := Marshal(m)
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	m := &AckReport{Header: Header{Type: TypeAck}, NumX: 64, Bitmap: []uint64{1}}
	b := Marshal(m)
	for n := 0; n < len(b); n++ {
		if _, err := Unmarshal(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	m := &XPacket{Header: Header{Type: TypeX}, Payload: []byte{1}}
	b := Marshal(m)
	// Rebuild the frame with an extra byte inside the checksummed region and
	// a recomputed CRC, so only the trailing-bytes check can fire.
	inner := append(append([]byte(nil), b[:len(b)-4]...), 0x00)
	crc := crc32ChecksumIEEE(inner)
	frame := append(inner, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	if _, err := Unmarshal(frame); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestBadMagicVersionType(t *testing.T) {
	m := &XPacket{Header: Header{Type: TypeX}, Payload: []byte{1}}
	mk := func(mut func([]byte)) error {
		b := Marshal(m)
		inner := append([]byte(nil), b[:len(b)-4]...)
		mut(inner)
		crc := crc32ChecksumIEEE(inner)
		frame := append(inner, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
		_, err := Unmarshal(frame)
		return err
	}
	if err := mk(func(b []byte) { b[0] = 'X' }); !errors.Is(err, ErrMagic) {
		t.Fatalf("magic err = %v", err)
	}
	if err := mk(func(b []byte) { b[2] = 99 }); !errors.Is(err, ErrVersion) {
		t.Fatalf("version err = %v", err)
	}
	if err := mk(func(b []byte) { b[3] = 200 }); !errors.Is(err, ErrType) {
		t.Fatalf("type err = %v", err)
	}
}

func TestOversizeVectorRejected(t *testing.T) {
	// A hostile length prefix must be rejected before allocation.
	m := &XPacket{Header: Header{Type: TypeX}, Payload: []byte{1, 2, 3, 4}}
	b := Marshal(m)
	inner := append([]byte(nil), b[:len(b)-4]...)
	// Payload length field sits right after header+seq.
	off := 11 + 4
	inner[off] = 0xff
	inner[off+1] = 0xff
	inner[off+2] = 0xff
	inner[off+3] = 0xff
	crc := crc32ChecksumIEEE(inner)
	frame := append(inner, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	if _, err := Unmarshal(frame); !errors.Is(err, ErrSizeLimit) && !errors.Is(err, ErrShort) {
		t.Fatalf("err = %v, want size/short error", err)
	}
}

func TestRandomizedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var m Message
		h := Header{From: uint8(rng.Intn(8)), Session: rng.Uint32(), Round: uint16(rng.Intn(100))}
		switch rng.Intn(5) {
		case 0:
			h.Type = TypeX
			p := make([]byte, rng.Intn(200))
			rng.Read(p)
			m = &XPacket{Header: h, Seq: rng.Uint32(), Payload: p}
		case 1:
			h.Type = TypeAck
			bm := make([]uint64, rng.Intn(4))
			for i := range bm {
				bm[i] = rng.Uint64()
			}
			m = &AckReport{Header: h, NumX: uint32(len(bm) * 64), Bitmap: bm}
		case 2:
			h.Type = TypeYAnnounce
			classes := make([]ClassBatch, rng.Intn(4))
			for i := range classes {
				ids := make([]uint32, rng.Intn(6))
				for j := range ids {
					ids[j] = rng.Uint32() % 1000
				}
				rows := make([][]uint16, rng.Intn(3))
				for j := range rows {
					rows[j] = make([]uint16, len(ids))
					for k := range rows[j] {
						rows[j][k] = uint16(rng.Intn(65536))
					}
				}
				classes[i] = ClassBatch{XIDs: ids, Coeffs: rows}
			}
			m = &YAnnounce{Header: h, Classes: classes}
		case 3:
			h.Type = TypeZ
			cs := make([]uint16, rng.Intn(10))
			for i := range cs {
				cs[i] = uint16(rng.Intn(65536))
			}
			p := make([]byte, rng.Intn(100))
			rng.Read(p)
			m = &ZPacket{Header: h, Index: uint16(rng.Intn(10)), Coeffs: cs, Payload: p}
		default:
			h.Type = TypeSAnnounce
			rows := make([][]uint16, rng.Intn(5))
			for j := range rows {
				rows[j] = make([]uint16, rng.Intn(8))
				for k := range rows[j] {
					rows[j][k] = uint16(rng.Intn(65536))
				}
			}
			m = &SAnnounce{Header: h, Coeffs: rows}
		}
		b := Marshal(m)
		if cap(b) != len(b) {
			t.Fatalf("trial %d: %s frame has cap %d for %d bytes, want one exact allocation", trial, h.Type, cap(b), len(b))
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !messagesEquivalent(m, got) {
			t.Fatalf("trial %d mismatch:\n in: %#v\nout: %#v", trial, m, got)
		}
	}
}

// TestPayloadAliasesFrame: decoded x- and z-payloads are sub-slices of
// the frame, not copies, capped so an append cannot write into the frame;
// re-marshalling the decoded message reproduces the frame exactly.
func TestPayloadAliasesFrame(t *testing.T) {
	for _, m := range []Message{
		&XPacket{Header: Header{Type: TypeX, From: 1, Session: 7, Round: 3}, Seq: 9, Payload: []byte{1, 2, 3, 4, 5, 6}},
		&ZPacket{Header: Header{Type: TypeZ, Session: 7, Round: 3}, Index: 2, Coeffs: []uint16{4, 5}, Payload: []byte{7, 8, 9, 10}},
	} {
		frame := Marshal(m)
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		var p []byte
		switch v := got.(type) {
		case *XPacket:
			p = v.Payload
		case *ZPacket:
			p = v.Payload
		}
		start := len(frame) - 4 - len(p) // the payload is the last field before the CRC
		if &p[0] != &frame[start] {
			t.Fatalf("%s payload was copied, want a sub-slice of the frame", got.Hdr().Type)
		}
		if cap(p) != len(p) {
			t.Fatalf("%s payload cap %d > len %d: an append would overwrite the CRC", got.Hdr().Type, cap(p), len(p))
		}
		crc := append([]byte(nil), frame[len(frame)-4:]...)
		_ = append(p, 0xee)
		if string(frame[len(frame)-4:]) != string(crc) {
			t.Fatalf("%s: appending to the payload wrote into the frame", got.Hdr().Type)
		}
		if again := Marshal(got); string(again) != string(frame) {
			t.Fatalf("%s: re-marshalled frame differs from the original", got.Hdr().Type)
		}
	}
}

// TestMarshalSmallFramesStaySmall: control frames are allocated at their
// exact length, never more than the fixed 64-byte start buffer the codec
// used to grow from.
func TestMarshalSmallFramesStaySmall(t *testing.T) {
	for _, m := range []Message{
		&Beacon{Header: Header{Type: TypeBeacon}, Kind: BeaconEndOfX, Value: 90},
		&AckReport{Header: Header{Type: TypeAck}, NumX: 90, Bitmap: []uint64{1, 2}},
		&SAnnounce{Header: Header{Type: TypeSAnnounce}, Coeffs: [][]uint16{{1, 2, 3}}},
	} {
		b := Marshal(m)
		if cap(b) != len(b) || cap(b) > 64 {
			t.Fatalf("%s frame: len %d cap %d, want cap == len <= 64", m.Hdr().Type, len(b), cap(b))
		}
	}
}

// TestAppendMarshalAllocs: encoding into a buffer presized with FrameLen
// allocates nothing, and matches Marshal byte for byte.
func TestAppendMarshalAllocs(t *testing.T) {
	for _, m := range []Message{
		&XPacket{Header: Header{Type: TypeX, Session: 7, Round: 3}, Seq: 9, Payload: make([]byte, 4096)},
		&Beacon{Header: Header{Type: TypeBeacon}, Kind: BeaconEndOfX, Value: 128},
		&ZPacket{Header: Header{Type: TypeZ}, Index: 2, Coeffs: []uint16{4, 5, 6}, Payload: make([]byte, 64)},
		&YAnnounce{Header: Header{Type: TypeYAnnounce}, Classes: []ClassBatch{{XIDs: []uint32{1, 2}, Coeffs: [][]uint16{{3, 4}}}}},
		&SAnnounce{Header: Header{Type: TypeSAnnounce}, Coeffs: [][]uint16{{1, 2, 3}}},
	} {
		buf := make([]byte, 0, FrameLen(m))
		var frame []byte
		if allocs := testing.AllocsPerRun(100, func() { frame = AppendMarshal(buf[:0], m) }); allocs != 0 {
			t.Errorf("%s: AppendMarshal into a presized buffer allocated %v times", m.Hdr().Type, allocs)
		}
		if want := Marshal(m); string(frame) != string(want) || len(want) != FrameLen(m) {
			t.Errorf("%s: AppendMarshal frame differs from Marshal's, or FrameLen %d != %d", m.Hdr().Type, FrameLen(m), len(want))
		}
	}
}

// TestXFrameDecodeAllocs: decoding an x frame in place allocates nothing,
// aliases the payload like Unmarshal, and refuses other frame types.
func TestXFrameDecodeAllocs(t *testing.T) {
	want := &XPacket{Header: Header{Type: TypeX, From: 1, Session: 7, Round: 3}, Seq: 9, Payload: make([]byte, 4096)}
	want.Payload[17] = 0xab
	frame := Marshal(want)
	var x XPacket
	allocs := testing.AllocsPerRun(100, func() {
		if err := UnmarshalX(frame, &x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UnmarshalX allocated %v times per frame", allocs)
	}
	if !messagesEquivalent(want, &x) || &x.Payload[0] != &frame[headerLen+8] || cap(x.Payload) != len(x.Payload) {
		t.Fatalf("UnmarshalX decoded %+v, want %+v with the payload aliasing the frame", x.Header, want.Header)
	}
	if err := UnmarshalX(Marshal(&Beacon{Header: Header{Type: TypeBeacon}}), &x); !errors.Is(err, ErrType) {
		t.Fatalf("UnmarshalX of a beacon: %v, want ErrType", err)
	}
}

// TestControlFrameDecodeAllocs: once a target has decoded a round's
// y-announce, z-packet and s-announce, decoding the next round's (same
// shape, other contents) into it allocates nothing; each decodes what
// Unmarshal decodes, and refuses frames of another type.
func TestControlFrameDecodeAllocs(t *testing.T) {
	round := func(r uint16) (y *YAnnounce, z *ZPacket, s *SAnnounce) {
		h := Header{From: 1, Session: 7, Round: r}
		row := func(n int) []uint16 {
			out := make([]uint16, n)
			for i := range out {
				out[i] = uint16(int(r)*31 + i)
			}
			return out
		}
		h.Type = TypeYAnnounce
		y = &YAnnounce{Header: h, Classes: []ClassBatch{
			{XIDs: []uint32{1, 4, 9}, Coeffs: [][]uint16{row(3), row(3)}},
			{XIDs: []uint32{uint32(r)}, Coeffs: [][]uint16{row(1)}},
		}}
		h.Type = TypeZ
		z = &ZPacket{Header: h, Index: r, Coeffs: row(5), Payload: make([]byte, 64)}
		z.Payload[3] = byte(r)
		h.Type = TypeSAnnounce
		s = &SAnnounce{Header: h, Coeffs: [][]uint16{row(5), row(5)}}
		return y, z, s
	}
	var (
		y YAnnounce
		z ZPacket
		s SAnnounce
	)
	decode := func(frames [3][]byte) {
		if err := UnmarshalY(frames[0], &y); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalZ(frames[1], &z); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalS(frames[2], &s); err != nil {
			t.Fatal(err)
		}
	}
	y0, z0, s0 := round(1)
	decode([3][]byte{Marshal(y0), Marshal(z0), Marshal(s0)}) // warm up
	y1, z1, s1 := round(2)
	frames := [3][]byte{Marshal(y1), Marshal(z1), Marshal(s1)}
	if allocs := testing.AllocsPerRun(100, func() { decode(frames) }); allocs != 0 {
		t.Fatalf("in-place control decode allocated %v times per round", allocs)
	}
	for i, pair := range [][2]Message{{y1, &y}, {z1, &z}, {s1, &s}} {
		if !messagesEquivalent(pair[0], pair[1]) {
			t.Fatalf("frame %d decoded in place to %+v, want %+v", i, pair[1], pair[0])
		}
	}
	if &z.Payload[0] != &frames[1][len(frames[1])-4-len(z.Payload)] || cap(z.Payload) != len(z.Payload) {
		t.Fatal("UnmarshalZ copied the payload instead of aliasing the frame")
	}
	beacon := Marshal(&Beacon{Header: Header{Type: TypeBeacon}})
	for name, err := range map[string]error{
		"UnmarshalY": UnmarshalY(beacon, &y),
		"UnmarshalZ": UnmarshalZ(beacon, &z),
		"UnmarshalS": UnmarshalS(frames[0], &s),
	} {
		if !errors.Is(err, ErrType) {
			t.Fatalf("%s of a frame of another type: %v, want ErrType", name, err)
		}
	}
}

// messagesEquivalent compares messages treating nil and empty slices as
// equal (the codec cannot distinguish them, by design).
func messagesEquivalent(a, b Message) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case *XPacket:
		c := *v
		if len(c.Payload) == 0 {
			c.Payload = []byte{}
		}
		return &c
	case *AckReport:
		c := *v
		if len(c.Bitmap) == 0 {
			c.Bitmap = []uint64{}
		}
		return &c
	case *YAnnounce:
		c := *v
		if len(c.Classes) == 0 {
			c.Classes = []ClassBatch{}
		}
		for i := range c.Classes {
			if len(c.Classes[i].XIDs) == 0 {
				c.Classes[i].XIDs = []uint32{}
			}
			if len(c.Classes[i].Coeffs) == 0 {
				c.Classes[i].Coeffs = [][]uint16{}
			}
			for j := range c.Classes[i].Coeffs {
				if len(c.Classes[i].Coeffs[j]) == 0 {
					c.Classes[i].Coeffs[j] = []uint16{}
				}
			}
		}
		return &c
	case *ZPacket:
		c := *v
		if len(c.Coeffs) == 0 {
			c.Coeffs = []uint16{}
		}
		if len(c.Payload) == 0 {
			c.Payload = []byte{}
		}
		return &c
	case *SAnnounce:
		c := *v
		if len(c.Coeffs) == 0 {
			c.Coeffs = [][]uint16{}
		}
		for j := range c.Coeffs {
			if len(c.Coeffs[j]) == 0 {
				c.Coeffs[j] = []uint16{}
			}
		}
		return &c
	}
	return m
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeX: "X", TypeAck: "ACK", TypeYAnnounce: "Y-ANNOUNCE",
		TypeZ: "Z", TypeSAnnounce: "S-ANNOUNCE", TypeBeacon: "BEACON", Type(99): "Type(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func BenchmarkMarshalX(b *testing.B) {
	m := &XPacket{Header: Header{Type: TypeX}, Seq: 1, Payload: make([]byte, 100)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(m)
	}
}

func BenchmarkUnmarshalX(b *testing.B) {
	raw := Marshal(&XPacket{Header: Header{Type: TypeX}, Seq: 1, Payload: make([]byte, 100)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHeaderPeekAndBeaconDecodeAllocs: PeekHeader returns a reception
// report's header and UnmarshalBeacon decodes a beacon in place, both
// without allocating; PeekHeader still refuses a frame whose checksum
// fails, and UnmarshalBeacon a frame of another type.
func TestHeaderPeekAndBeaconDecodeAllocs(t *testing.T) {
	ah := Header{Type: TypeAck, From: 2, Session: 0xfeed, Round: 7}
	ack := Marshal(&AckReport{Header: ah, NumX: 128, Bitmap: []uint64{1, 2}})
	beacon := &Beacon{Header: Header{Type: TypeBeacon, Session: 0xfeed, Round: 7}, Kind: BeaconEndOfX, Value: 128}
	bframe := Marshal(beacon)
	var (
		h   Header
		err error
		b   Beacon
	)
	if allocs := testing.AllocsPerRun(100, func() {
		h, err = PeekHeader(ack)
		if err == nil {
			err = UnmarshalBeacon(bframe, &b)
		}
	}); allocs != 0 {
		t.Fatalf("header peek and beacon decode allocated %v times", allocs)
	}
	if err != nil || h != ah || b != *beacon {
		t.Fatalf("PeekHeader = %+v, beacon %+v, %v; want %+v and %+v", h, b, err, ah, *beacon)
	}
	bad := append([]byte(nil), ack...)
	bad[len(bad)-1] ^= 1
	if _, err := PeekHeader(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("PeekHeader of a corrupted frame: %v, want ErrChecksum", err)
	}
	if err := UnmarshalBeacon(ack, &b); !errors.Is(err, ErrType) {
		t.Fatalf("UnmarshalBeacon of a reception report: %v, want ErrType", err)
	}
}

// copyFiller fills a payload from a fixed pattern.
type copyFiller struct{ b []byte }

func (c *copyFiller) Fill(p []byte) { copy(p, c.b) }

// TestAppendXFill: an x frame built around a payload written in place is
// the frame Marshal makes of the same packet, whatever the header's
// type says; it is XFrameLen long and, with that much spare capacity,
// appended without allocating; XPayload finds the payload in it.
func TestAppendXFill(t *testing.T) {
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	h := Header{Type: TypeBeacon, From: 2, Session: 11, Round: 5}
	want := Marshal(&XPacket{Header: Header{Type: TypeX, From: 2, Session: 11, Round: 5}, Seq: 42, Payload: payload})
	buf := make([]byte, 3, 3+XFrameLen(len(payload)))
	var got []byte
	fill := &copyFiller{payload}
	if n := testing.AllocsPerRun(20, func() { got = AppendXFill(buf, h, 42, len(payload), fill) }); n != 0 {
		t.Fatalf("AppendXFill allocated %v times with room for the frame", n)
	}
	frame := got[3:]
	if !bytes.Equal(frame, want) || len(frame) != XFrameLen(len(payload)) {
		t.Fatalf("AppendXFill frame (%d bytes) differs from Marshal's (%d bytes)", len(frame), len(want))
	}
	p := XPayload(frame)
	if !bytes.Equal(p, payload) || &p[0] != &frame[headerLen+8] || cap(p) != len(p) {
		t.Fatal("XPayload is not the capped payload within the frame")
	}
}
