// Package wire defines the protocol's message formats and a compact,
// versioned binary codec for them.
//
// Five message types flow during a round, mirroring §3 of the paper:
//
//	XPacket    — an x-packet broadcast (unreliable, subject to erasure)
//	AckReport  — a terminal's reception report (reliable; step 2 of Phase 1)
//	YAnnounce  — identities/coefficients of the y-packets (reliable; step 3)
//	ZPacket    — one z-packet: coefficients AND contents (reliable; Phase 2 step 1)
//	SAnnounce  — coefficients of the s-packets (reliable; Phase 2 step 3)
//
// Reliable messages are assumed overheard by Eve in full, per the paper's
// conservative model. The codec is deliberately self-contained: fixed
// big-endian header, length-prefixed vectors, and a trailing CRC-32 so the
// UDP transport can reject corrupted datagrams.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Type enumerates message types.
type Type uint8

// Message type values. They appear on the wire and must not be renumbered.
const (
	TypeX Type = iota + 1
	TypeAck
	TypeYAnnounce
	TypeZ
	TypeSAnnounce
	TypeBeacon
)

// String returns the mnemonic name of a message type.
func (t Type) String() string {
	switch t {
	case TypeX:
		return "X"
	case TypeAck:
		return "ACK"
	case TypeYAnnounce:
		return "Y-ANNOUNCE"
	case TypeZ:
		return "Z"
	case TypeSAnnounce:
		return "S-ANNOUNCE"
	case TypeBeacon:
		return "BEACON"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Version is the current codec version byte.
const Version = 1

const (
	magic0 = 0x54 // 'T'
	magic1 = 0x41 // 'A' — "Thin Air"
)

// Header carries the fields common to every message.
type Header struct {
	Type    Type
	From    uint8  // index of the sending terminal
	Session uint32 // session identifier
	Round   uint16 // round number within the session
}

// Message is implemented by all wire messages.
type Message interface {
	Hdr() *Header
	// bodyLen is the length of the type-specific payload encoding.
	bodyLen() int
	// body appends the type-specific payload encoding.
	body(dst []byte) []byte
	// parseBody decodes the type-specific payload.
	parseBody(r *reader) error
}

// XPacket is one unreliable x-packet broadcast.
type XPacket struct {
	Header
	Seq     uint32 // x-packet ID within the round
	Payload []byte
}

// AckReport is a terminal's reliable report of which x-packets it received.
type AckReport struct {
	Header
	NumX   uint32   // number of x-packets transmitted this round
	Bitmap []uint64 // reception bitmap, ceil(NumX/64) words
}

// ClassBatch is one reception class's y-packet construction: the x-IDs in
// the class and the m_T x c_T coefficient matrix over them.
type ClassBatch struct {
	XIDs   []uint32
	Coeffs [][]uint16 // rows: one per y-packet in the batch
}

// YAnnounce publishes the y-packet constructions for a round.
type YAnnounce struct {
	Header
	Classes []ClassBatch
}

// ZPacket carries one z-packet: its coefficient row over the y-packets and
// its contents.
type ZPacket struct {
	Header
	Index   uint16   // z-packet index, 0..M-L-1
	Coeffs  []uint16 // length M
	Payload []byte
}

// SAnnounce publishes the s-packet coefficient rows (L rows of length M).
type SAnnounce struct {
	Header
	Coeffs [][]uint16
}

// BeaconKind enumerates the coordination signals of the asynchronous node
// runtime. They carry no payload knowledge (Eve learns nothing linear
// from them).
type BeaconKind uint8

// Beacon kinds.
const (
	// BeaconEndOfX marks the end of the round's x-packet transmissions;
	// Value carries the number of packets transmitted.
	BeaconEndOfX BeaconKind = iota + 1
	// BeaconRoundAbort tells terminals the round yields no secret
	// (L = 0); Value is unused.
	BeaconRoundAbort
	// BeaconSessionDone marks the end of the session; Value carries the
	// number of completed rounds.
	BeaconSessionDone
)

// Beacon is a small coordination message used by the asynchronous
// runtime (the synchronous simulator does not need it).
type Beacon struct {
	Header
	Kind  BeaconKind
	Value uint32
}

// Hdr returns the message header.
func (m *XPacket) Hdr() *Header   { return &m.Header }
func (m *AckReport) Hdr() *Header { return &m.Header }
func (m *YAnnounce) Hdr() *Header { return &m.Header }
func (m *ZPacket) Hdr() *Header   { return &m.Header }
func (m *SAnnounce) Hdr() *Header { return &m.Header }
func (m *Beacon) Hdr() *Header    { return &m.Header }

// Codec errors.
var (
	ErrShort     = errors.New("wire: message truncated")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrChecksum  = errors.New("wire: checksum mismatch")
	ErrType      = errors.New("wire: unknown message type")
	ErrSizeLimit = errors.New("wire: length field exceeds limit")
	ErrTrailing  = errors.New("wire: trailing bytes after body")
)

// maxVec caps every length-prefixed vector to keep a corrupted or hostile
// length field from driving huge allocations.
const maxVec = 1 << 20

const headerLen = 2 + 1 + 1 + 1 + 4 + 2 // magic, version, type, from, session, round

// FrameLen returns the length of m's frame: what Marshal allocates and
// AppendMarshal appends.
func FrameLen(m Message) int { return headerLen + m.bodyLen() + 4 }

// Marshal encodes a message into a self-delimiting frame. The frame is
// allocated once, at its exact length.
func Marshal(m Message) []byte {
	return AppendMarshal(make([]byte, 0, FrameLen(m)), m)
}

// AppendMarshal appends m's frame to dst and returns the extended slice.
// With FrameLen(m) bytes of spare capacity in dst it does not allocate.
func AppendMarshal(dst []byte, m Message) []byte {
	start := len(dst)
	dst = appendHeader(dst, m.Hdr())
	dst = m.body(dst)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendHeader(dst []byte, h *Header) []byte {
	dst = append(dst, magic0, magic1, Version, byte(h.Type), h.From)
	dst = binary.BigEndian.AppendUint32(dst, h.Session)
	return binary.BigEndian.AppendUint16(dst, h.Round)
}

// Filler writes a payload in place.
type Filler interface {
	Fill(p []byte)
}

// AppendXFill appends the frame of the x-packet with header h (its type
// set to TypeX), sequence number seq and an n-byte payload that fill
// writes straight into the frame, and returns the extended slice. The
// frame is the one AppendMarshal makes of the same packet; the payload
// is simply never held anywhere else. With XFrameLen(n) bytes of spare
// capacity in dst it does not allocate. XPayload finds the payload in
// the frame again.
func AppendXFill(dst []byte, h Header, seq uint32, n int, fill Filler) []byte {
	start := len(dst)
	h.Type = TypeX
	dst = appendHeader(dst, &h)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = slices.Grow(dst, n+4)[:len(dst)+n]
	fill.Fill(dst[len(dst)-n:])
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// XFrameLen is the frame length of an x-packet with an n-byte payload.
func XFrameLen(n int) int { return headerLen + 4 + 4 + n + 4 }

// XPayload returns the payload of a well-formed x frame, capped at its
// length, without checking the frame: a sender uses it to read back the
// payload of a frame it built itself.
func XPayload(frame []byte) []byte {
	return frame[headerLen+8 : len(frame)-4 : len(frame)-4]
}

// Unmarshal decodes one frame into the appropriate message type.
//
// XPacket and ZPacket payloads are not copied: they alias b (capped at
// their own length, so an append never writes into b). The frame is
// therefore shared with the message and must not be modified while the
// message is in use, and neither may the payloads. Every bus hands its
// receivers frames that nobody writes to afterwards: a sender keeps a
// frame immutable from the send until the bus is closed and every
// goroutine that drains it has returned (see transport.ChanBus), so a
// message decoded from a delivered frame stays valid at least that long.
func Unmarshal(b []byte) (Message, error) {
	h, body, err := header(b)
	if err != nil {
		return nil, err
	}
	// Concrete parseBody calls keep the reader on the stack.
	r := reader{b: body}
	var m Message
	switch h.Type {
	case TypeX:
		mm := &XPacket{Header: h}
		m, err = mm, mm.parseBody(&r)
	case TypeAck:
		mm := &AckReport{Header: h}
		m, err = mm, mm.parseBody(&r)
	case TypeYAnnounce:
		mm := &YAnnounce{Header: h}
		m, err = mm, mm.parseBody(&r)
	case TypeZ:
		mm := &ZPacket{Header: h}
		m, err = mm, mm.parseBody(&r)
	case TypeSAnnounce:
		mm := &SAnnounce{Header: h}
		m, err = mm, mm.parseBody(&r)
	case TypeBeacon:
		mm := &Beacon{Header: h}
		m, err = mm, mm.parseBody(&r)
	default:
		return nil, fmt.Errorf("%w: %d", ErrType, h.Type)
	}
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalX decodes an x-packet frame into m without allocating, with
// every check Unmarshal makes; a frame of another type is an ErrType
// error. m.Payload aliases b, as in Unmarshal. On error m is left in an
// unspecified state.
func UnmarshalX(b []byte, m *XPacket) error {
	r, err := bodyOf(b, TypeX, &m.Header)
	if err != nil {
		return err
	}
	if err := m.parseBody(&r); err != nil {
		return err
	}
	return r.end()
}

// UnmarshalY decodes a y-announce frame into m in place, with every
// check Unmarshal makes; a frame of another type is an ErrType error. It
// reuses m's slices and the rows in them, so a target decoded into
// before stops allocating once its slices are as long as the frames it
// meets. On error m is left in an unspecified state.
func UnmarshalY(b []byte, m *YAnnounce) error {
	r, err := bodyOf(b, TypeYAnnounce, &m.Header)
	if err != nil {
		return err
	}
	if err := m.parseBody(&r); err != nil {
		return err
	}
	return r.end()
}

// UnmarshalZ is UnmarshalY for a z-packet frame. m.Payload aliases b, as
// in Unmarshal.
func UnmarshalZ(b []byte, m *ZPacket) error {
	r, err := bodyOf(b, TypeZ, &m.Header)
	if err != nil {
		return err
	}
	if err := m.parseBody(&r); err != nil {
		return err
	}
	return r.end()
}

// UnmarshalS is UnmarshalY for an s-announce frame.
func UnmarshalS(b []byte, m *SAnnounce) error {
	r, err := bodyOf(b, TypeSAnnounce, &m.Header)
	if err != nil {
		return err
	}
	if err := m.parseBody(&r); err != nil {
		return err
	}
	return r.end()
}

// UnmarshalBeacon is UnmarshalX for a beacon frame.
func UnmarshalBeacon(b []byte, m *Beacon) error {
	r, err := bodyOf(b, TypeBeacon, &m.Header)
	if err != nil {
		return err
	}
	if err := m.parseBody(&r); err != nil {
		return err
	}
	return r.end()
}

// bodyOf checks frame b, requires its type to be t, stores its header in
// h and returns a reader over its body.
func bodyOf(b []byte, t Type, h *Header) (reader, error) {
	hd, body, err := header(b)
	if err != nil {
		return reader{}, err
	}
	if hd.Type != t {
		return reader{}, fmt.Errorf("%w: %v is not %v", ErrType, hd.Type, t)
	}
	*h = hd
	return reader{b: body}, nil
}

// header checks a frame's length, checksum, magic and version, and
// returns its header and the body between header and checksum.
func header(b []byte) (Header, []byte, error) {
	if len(b) < headerLen+4 {
		return Header{}, nil, ErrShort
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return Header{}, nil, ErrChecksum
	}
	if body[0] != magic0 || body[1] != magic1 {
		return Header{}, nil, ErrMagic
	}
	if body[2] != Version {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrVersion, body[2])
	}
	h := Header{
		Type:    Type(body[3]),
		From:    body[4],
		Session: binary.BigEndian.Uint32(body[5:9]),
		Round:   binary.BigEndian.Uint16(body[9:11]),
	}
	return h, body[headerLen:], nil
}

// PeekX reads an x-packet frame's round (header bytes 9–10) and sequence
// number (bytes 11–14) without decoding it. ok is false for every frame
// that is not shaped like an x-packet: other message types, foreign or
// truncated bytes. It checks no CRC, so a frame it accepts may still fail
// Unmarshal; for every frame Unmarshal accepts, the two agree. It never
// allocates — buses call it on every data frame to key the erasure coin.
func PeekX(b []byte) (round uint16, seq uint32, ok bool) {
	const minX = headerLen + 4 + 4 + 4 // header, seq, payload length, CRC
	if len(b) < minX || b[0] != magic0 || b[1] != magic1 || b[2] != Version || Type(b[3]) != TypeX {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(b[9:11]), binary.BigEndian.Uint32(b[headerLen:]), true
}

// PeekHeader checks a frame as Unmarshal does — length, checksum, magic
// and version — and returns its header without decoding its body, so a
// frame it accepts may still fail Unmarshal on a malformed body. It
// allocates nothing for a frame it accepts: a keystream leader counts
// reception reports by their headers alone.
func PeekHeader(b []byte) (Header, error) {
	h, _, err := header(b)
	return h, err
}

// PeekType reads a frame's type byte without decoding or checking the
// frame; 0 for bytes too short to hold one. It never allocates.
func PeekType(b []byte) Type {
	if len(b) < 4 {
		return 0
	}
	return Type(b[3])
}

// reader is a bounds-checked big-endian cursor.
type reader struct{ b []byte }

func (r *reader) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, ErrShort
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *reader) count() (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	if v > maxVec {
		return 0, ErrSizeLimit
	}
	return int(v), nil
}

// bytes returns the next length-prefixed vector as a sub-slice of the
// frame, not a copy (see Unmarshal).
func (r *reader) bytes() ([]byte, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if len(r.b) < n {
		return nil, ErrShort
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

// end reports whether the body was consumed exactly.
func (r *reader) end() error {
	if len(r.b) != 0 {
		return ErrTrailing
	}
	return nil
}

// countMin is count for a vector whose elements each take at least min
// bytes of what is left, so a length field cannot ask for more elements
// than the frame could hold.
func (r *reader) countMin(min int) (int, error) {
	n, err := r.count()
	if err != nil {
		return 0, err
	}
	if len(r.b) < min*n {
		return 0, ErrShort
	}
	return n, nil
}

// resize returns s with length n, reusing its array, and the elements
// in it, when it is large enough.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)[:n]
}

// u16s decodes the next uint16 vector into dst's array when it fits.
func (r *reader) u16s(dst []uint16) ([]uint16, error) {
	n, err := r.countMin(2)
	if err != nil {
		return nil, err
	}
	out := resize(dst, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint16(r.b[2*i:])
	}
	r.b = r.b[2*n:]
	return out, nil
}

// u32s decodes the next uint32 vector into dst's array when it fits.
func (r *reader) u32s(dst []uint32) ([]uint32, error) {
	n, err := r.countMin(4)
	if err != nil {
		return nil, err
	}
	out := resize(dst, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(r.b[4*i:])
	}
	r.b = r.b[4*n:]
	return out, nil
}

func (r *reader) u64s() ([]uint64, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if len(r.b) < 8*n {
		return nil, ErrShort
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(r.b[8*i:])
	}
	r.b = r.b[8*n:]
	return out, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendU16s(dst []byte, v []uint16) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	for _, x := range v {
		dst = binary.BigEndian.AppendUint16(dst, x)
	}
	return dst
}

func appendU32s(dst []byte, v []uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	for _, x := range v {
		dst = binary.BigEndian.AppendUint32(dst, x)
	}
	return dst
}

func appendU64s(dst []byte, v []uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	for _, x := range v {
		dst = binary.BigEndian.AppendUint64(dst, x)
	}
	return dst
}

func (m *XPacket) bodyLen() int { return 4 + 4 + len(m.Payload) }

func (m *XPacket) body(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	return appendBytes(dst, m.Payload)
}

func (m *XPacket) parseBody(r *reader) (err error) {
	if m.Seq, err = r.u32(); err != nil {
		return err
	}
	m.Payload, err = r.bytes()
	return err
}

func (m *AckReport) bodyLen() int { return 4 + 4 + 8*len(m.Bitmap) }

func (m *AckReport) body(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.NumX)
	return appendU64s(dst, m.Bitmap)
}

func (m *AckReport) parseBody(r *reader) (err error) {
	if m.NumX, err = r.u32(); err != nil {
		return err
	}
	m.Bitmap, err = r.u64s()
	return err
}

func (m *YAnnounce) bodyLen() int {
	n := 4
	for _, cb := range m.Classes {
		n += 4 + 4*len(cb.XIDs) + 4
		for _, row := range cb.Coeffs {
			n += 4 + 2*len(row)
		}
	}
	return n
}

func (m *YAnnounce) body(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Classes)))
	for _, cb := range m.Classes {
		dst = appendU32s(dst, cb.XIDs)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(cb.Coeffs)))
		for _, row := range cb.Coeffs {
			dst = appendU16s(dst, row)
		}
	}
	return dst
}

// parseBody reuses m's slices, and the rows in them (see UnmarshalY).
func (m *YAnnounce) parseBody(r *reader) error {
	nc, err := r.countMin(8) // each class: two vector lengths
	if err != nil {
		return err
	}
	m.Classes = resize(m.Classes, nc)
	for i := range m.Classes {
		cb := &m.Classes[i]
		if cb.XIDs, err = r.u32s(cb.XIDs); err != nil {
			return err
		}
		if cb.Coeffs, err = r.rows(cb.Coeffs); err != nil {
			return err
		}
	}
	return nil
}

// rows decodes the next vector of uint16 rows into dst's rows when they
// fit.
func (r *reader) rows(dst [][]uint16) ([][]uint16, error) {
	n, err := r.countMin(4) // each row: its length
	if err != nil {
		return nil, err
	}
	out := resize(dst, n)
	for i := range out {
		if out[i], err = r.u16s(out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (m *ZPacket) bodyLen() int { return 2 + 4 + 2*len(m.Coeffs) + 4 + len(m.Payload) }

func (m *ZPacket) body(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, m.Index)
	dst = appendU16s(dst, m.Coeffs)
	return appendBytes(dst, m.Payload)
}

func (m *ZPacket) parseBody(r *reader) (err error) {
	if m.Index, err = r.u16(); err != nil {
		return err
	}
	if m.Coeffs, err = r.u16s(m.Coeffs); err != nil {
		return err
	}
	m.Payload, err = r.bytes()
	return err
}

func (m *SAnnounce) bodyLen() int {
	n := 4
	for _, row := range m.Coeffs {
		n += 4 + 2*len(row)
	}
	return n
}

func (m *SAnnounce) body(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Coeffs)))
	for _, row := range m.Coeffs {
		dst = appendU16s(dst, row)
	}
	return dst
}

func (m *SAnnounce) parseBody(r *reader) (err error) {
	m.Coeffs, err = r.rows(m.Coeffs)
	return err
}

func (m *Beacon) bodyLen() int { return 1 + 4 }

func (m *Beacon) body(dst []byte) []byte {
	dst = append(dst, byte(m.Kind))
	return binary.BigEndian.AppendUint32(dst, m.Value)
}

func (m *Beacon) parseBody(r *reader) error {
	if len(r.b) < 1 {
		return ErrShort
	}
	m.Kind = BeaconKind(r.b[0])
	r.b = r.b[1:]
	v, err := r.u32()
	if err != nil {
		return err
	}
	m.Value = v
	return nil
}
