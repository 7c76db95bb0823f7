// Package gate is the persistent-client tier: a frontend that holds
// long-lived TCP (or WebSocket) connections speaking a small binary
// frame protocol, resolves session→worker ownership once via the
// coordinator, caches it, and serves draws and stream ranges directly
// from the owning worker's /v1 session routes — the coordinator only
// ever resolves ownership, it never relays key material.
//
// Frame format (the lonng/nano package shape):
//
//	+--------+--------------------+-------------------------+
//	| type:1 |     length:3       |          body           |
//	+--------+--------------------+-------------------------+
//
// length is the big-endian byte length of body (max 2^24-1). Types:
//
//	0x01 handshake      client→server JSON {"version":1}; the server
//	                    answers with the same type carrying
//	                    {"version":1,"heartbeat_ms":N,"max_frame":M}
//	0x02 handshake-ack  client→server, empty body; data may flow after
//	0x03 heartbeat      client→server, empty body; the server echoes it.
//	                    A connection silent for 3×heartbeat_ms is closed
//	                    server-side (heartbeat_ms 0 disables the rule)
//	0x04 data           request/response, multiplexed by request id
//	0x05 kick           server→server-side close: body is a reason string
//
// Data request body:
//
//	| reqid:4 | op:1 | session:8 | op fields | spanlen:1 | span |
//
// ops: 0x01 draw (n:4), 0x02 bulk-draw (n:4, count:4), 0x03
// stream-range (offset:8, length:8); all integers big-endian. span is
// an optional observability span id propagated into the worker RPC.
//
// Data response body:
//
//	| reqid:4 | kind:1 | rest |
//
// kinds: 0x00 final (rest is the payload — for streams, the last,
// possibly empty, chunk), 0x01 error (rest is code:1 + message), 0x02
// partial (rest is one stream chunk; more frames follow). Error codes
// are the one-byte form of the shared /v1 envelope slugs (httpapi.Code*).
package gate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/httpapi"
)

// Frame types.
const (
	frameHandshake    = 0x01
	frameHandshakeAck = 0x02
	frameHeartbeat    = 0x03
	frameData         = 0x04
	frameKick         = 0x05
)

// MaxFrameBody is the largest frame body the 3-byte length can carry.
// Stream ranges larger than this are chunked into partial frames.
const MaxFrameBody = 1<<24 - 1

// Data request ops.
const (
	opDraw   = 0x01
	opBulk   = 0x02
	opStream = 0x03
)

// Data response kinds.
const (
	kindFinal   = 0x00
	kindError   = 0x01
	kindPartial = 0x02
)

// Wire error codes: the one-byte form of the /v1 envelope slugs. 0 is
// reserved (not a code) so a zeroed byte never reads as a valid one.
const (
	codeByteBadRequest  = 1
	codeByteDraining    = 2
	codeByteDuplicate   = 3
	codeByteSaturated   = 4
	codeByteExhausted   = 5
	codeByteClosed      = 6
	codeByteOrphaned    = 7
	codeByteNotFound    = 8
	codeByteShutdown    = 9
	codeByteUnreachable = 10
	codeByteInternal    = 11
	codeByteFailed      = 12
)

// codeToSlug maps wire bytes to the shared envelope slugs; slugToCode is
// its inverse. The gate carries exactly the /v1 code set, one byte each.
var codeToSlug = map[byte]string{
	codeByteBadRequest:  httpapi.CodeBadRequest,
	codeByteDraining:    httpapi.CodeDraining,
	codeByteDuplicate:   httpapi.CodeDuplicate,
	codeByteSaturated:   httpapi.CodeSaturated,
	codeByteExhausted:   httpapi.CodeExhausted,
	codeByteClosed:      httpapi.CodeClosed,
	codeByteOrphaned:    httpapi.CodeOrphaned,
	codeByteNotFound:    httpapi.CodeNotFound,
	codeByteShutdown:    httpapi.CodeShutdown,
	codeByteUnreachable: httpapi.CodeUnreachable,
	codeByteInternal:    httpapi.CodeInternal,
	codeByteFailed:      httpapi.CodeFailed,
}

var slugToCode = func() map[string]byte {
	m := make(map[string]byte, len(codeToSlug))
	for b, s := range codeToSlug {
		m[s] = b
	}
	return m
}()

// errFrameTooLarge rejects frames whose declared body exceeds the
// 3-byte length space (unreachable on the wire) or the reader's cap.
var errFrameTooLarge = errors.New("gate: frame body too large")

// errMalformed rejects structurally invalid data bodies.
var errMalformed = errors.New("gate: malformed frame")

// handshake is the JSON body of the client's 0x01 frame.
type handshake struct {
	Version int `json:"version"`
}

// handshakeAck is the JSON body of the server's 0x01 reply.
type handshakeAck struct {
	Version     int   `json:"version"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
	MaxFrame    int   `json:"max_frame"`
}

// protocolVersion is the only version both ends speak today.
const protocolVersion = 1

// Header sizes: every frame starts with type:1 + length:3, and every
// data response continues with reqid:4 + kind:1. Frames are built in
// place behind a header slot of this size, so each goes out in one
// write — interleaving matters more than copies on a multiplexed
// connection — without a second copy of its body.
const (
	frameHeaderLen = 4
	dataHeaderLen  = frameHeaderLen + 5
)

// putFrameHeader writes the type and length of the frame whose body is
// frame[frameHeaderLen:]. A body over MaxFrameBody does not fit the
// length: writeFrame and agent.send refuse such a frame.
func putFrameHeader(frame []byte, typ byte) {
	n := len(frame) - frameHeaderLen
	frame[0], frame[1], frame[2], frame[3] = typ, byte(n>>16), byte(n>>8), byte(n)
}

// putResponseHeader writes the frame and response headers of the data
// response whose payload is frame[dataHeaderLen:].
func putResponseHeader(frame []byte, reqID uint32, kind byte) {
	putFrameHeader(frame, frameData)
	binary.BigEndian.PutUint32(frame[frameHeaderLen:], reqID)
	frame[frameHeaderLen+4] = kind
}

// newFrame returns the frame of type typ carrying body.
func newFrame(typ byte, body []byte) []byte {
	frame := make([]byte, frameHeaderLen+len(body))
	copy(frame[frameHeaderLen:], body)
	putFrameHeader(frame, typ)
	return frame
}

// writeFrame emits one frame. Callers serialize access to w themselves.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	if len(body) > MaxFrameBody {
		return errFrameTooLarge
	}
	_, err := w.Write(newFrame(typ, body))
	return err
}

// readFrame reads one frame, reusing buf for the body when it fits.
// maxBody bounds the accepted body length (0 means MaxFrameBody).
func readFrame(r io.Reader, buf []byte, maxBody int) (typ byte, body []byte, err error) {
	typ, n, err := readFrameHeader(r, maxBody)
	if err != nil {
		return 0, nil, err
	}
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// readFrameHeader reads one frame header: the type and the body length,
// bounded by maxBody (0 means MaxFrameBody).
func readFrameHeader(r io.Reader, maxBody int) (typ byte, n int, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n = int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if maxBody <= 0 {
		maxBody = MaxFrameBody
	}
	if n > maxBody {
		return 0, 0, errFrameTooLarge
	}
	return hdr[0], n, nil
}

// request is one decoded data-frame request.
type request struct {
	ReqID   uint32
	Op      byte
	Session uint64
	N       uint32 // draw: bytes; bulk: bytes per key
	Count   uint32 // bulk: number of keys
	Off     int64  // stream: range offset
	Len     int64  // stream: range length
	Span    string // optional observability span id
}

// appendRequest encodes req onto b.
func appendRequest(b []byte, req request) ([]byte, error) {
	if len(req.Span) > 255 {
		return nil, errMalformed
	}
	b = binary.BigEndian.AppendUint32(b, req.ReqID)
	b = append(b, req.Op)
	b = binary.BigEndian.AppendUint64(b, req.Session)
	switch req.Op {
	case opDraw:
		b = binary.BigEndian.AppendUint32(b, req.N)
	case opBulk:
		b = binary.BigEndian.AppendUint32(b, req.N)
		b = binary.BigEndian.AppendUint32(b, req.Count)
	case opStream:
		b = binary.BigEndian.AppendUint64(b, uint64(req.Off))
		b = binary.BigEndian.AppendUint64(b, uint64(req.Len))
	default:
		return nil, errMalformed
	}
	b = append(b, byte(len(req.Span)))
	b = append(b, req.Span...)
	return b, nil
}

// parseRequest decodes one data-frame request body.
func parseRequest(body []byte) (request, error) {
	var req request
	if len(body) < 13 {
		return req, errMalformed
	}
	req.ReqID = binary.BigEndian.Uint32(body)
	req.Op = body[4]
	req.Session = binary.BigEndian.Uint64(body[5:])
	rest := body[13:]
	switch req.Op {
	case opDraw:
		if len(rest) < 4 {
			return req, errMalformed
		}
		req.N = binary.BigEndian.Uint32(rest)
		rest = rest[4:]
	case opBulk:
		if len(rest) < 8 {
			return req, errMalformed
		}
		req.N = binary.BigEndian.Uint32(rest)
		req.Count = binary.BigEndian.Uint32(rest[4:])
		rest = rest[8:]
	case opStream:
		if len(rest) < 16 {
			return req, errMalformed
		}
		req.Off = int64(binary.BigEndian.Uint64(rest))
		req.Len = int64(binary.BigEndian.Uint64(rest[8:]))
		if req.Off < 0 || req.Len < 0 {
			return req, errMalformed
		}
		rest = rest[16:]
	default:
		return req, fmt.Errorf("%w: op 0x%02x", errMalformed, req.Op)
	}
	if len(rest) < 1 {
		return req, errMalformed
	}
	spanLen := int(rest[0])
	rest = rest[1:]
	if len(rest) != spanLen {
		return req, errMalformed
	}
	req.Span = string(rest)
	return req, nil
}

// appendResponseHeader encodes the reqid + kind prefix of a response.
func appendResponseHeader(b []byte, reqID uint32, kind byte) []byte {
	b = binary.BigEndian.AppendUint32(b, reqID)
	return append(b, kind)
}

// response is one decoded data-frame response.
type response struct {
	ReqID   uint32
	Kind    byte
	Code    byte   // kindError only
	Message string // kindError only
	Payload []byte // kindFinal / kindPartial; aliases the read buffer
}

// parseResponse decodes one data-frame response body.
func parseResponse(body []byte) (response, error) {
	var resp response
	if len(body) < 5 {
		return resp, errMalformed
	}
	resp.ReqID = binary.BigEndian.Uint32(body)
	resp.Kind = body[4]
	rest := body[5:]
	switch resp.Kind {
	case kindFinal, kindPartial:
		resp.Payload = rest
	case kindError:
		if len(rest) < 1 {
			return resp, errMalformed
		}
		resp.Code = rest[0]
		resp.Message = string(rest[1:])
	default:
		return resp, fmt.Errorf("%w: response kind 0x%02x", errMalformed, resp.Kind)
	}
	return resp, nil
}
