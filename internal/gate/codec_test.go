package gate

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/httpapi"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		typ  byte
		body []byte
	}{
		{frameHandshake, []byte(`{"version":1}`)},
		{frameHandshakeAck, nil},
		{frameHeartbeat, nil},
		{frameData, bytes.Repeat([]byte{0xAB}, 1000)},
		{frameKick, []byte("heartbeat timeout")},
		{frameData, []byte{}},
	}
	var buf bytes.Buffer
	for _, tc := range cases {
		buf.Reset()
		if err := writeFrame(&buf, tc.typ, tc.body); err != nil {
			t.Fatal(err)
		}
		typ, body, err := readFrame(&buf, nil, 0)
		if err != nil {
			t.Fatalf("readFrame(type 0x%02x): %v", tc.typ, err)
		}
		if typ != tc.typ || !bytes.Equal(body, tc.body) {
			t.Fatalf("frame 0x%02x round trip: got type 0x%02x body %d bytes", tc.typ, typ, len(body))
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, make([]byte, MaxFrameBody+1)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("writeFrame over limit: %v, want errFrameTooLarge", err)
	}
	// A reader with a maxBody cap rejects bodies past it without
	// allocating them.
	buf.Reset()
	if err := writeFrame(&buf, frameData, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(&buf, nil, 1024); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("readFrame with 1024 cap on 2048 body: %v, want errFrameTooLarge", err)
	}
}

func TestFrameShortHeader(t *testing.T) {
	for _, raw := range [][]byte{nil, {0x04}, {0x04, 0x00, 0x00}} {
		if _, _, err := readFrame(bytes.NewReader(raw), nil, 0); err == nil {
			t.Fatalf("readFrame(%d header bytes) succeeded", len(raw))
		}
	}
	// Header promises more body than the reader delivers.
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	if _, _, err := readFrame(bytes.NewReader(truncated), nil, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v, want ErrUnexpectedEOF", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []request{
		{ReqID: 1, Op: opDraw, Session: 42, N: 32},
		{ReqID: 0xFFFFFFFF, Op: opBulk, Session: 1 << 60, N: 16, Count: 128},
		{ReqID: 7, Op: opStream, Session: 3, Off: 1 << 40, Len: 1 << 20},
		{ReqID: 9, Op: opDraw, Session: 1, N: 1, Span: "01ab23cd45ef6789"},
	}
	for _, req := range cases {
		body, err := appendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseRequest(body)
		if err != nil {
			t.Fatalf("parseRequest(%+v): %v", req, err)
		}
		if got != req {
			t.Fatalf("request round trip: sent %+v, got %+v", req, got)
		}
	}
}

func TestRequestMalformedRejected(t *testing.T) {
	good, err := appendRequest(nil, request{ReqID: 1, Op: opStream, Session: 5, Off: 0, Len: 100})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"short":            good[:8],
		"truncated fields": good[:len(good)-4],
		"trailing junk":    append(append([]byte{}, good...), 0xFF),
	}
	for name, raw := range cases {
		if _, err := parseRequest(raw); err == nil {
			t.Fatalf("parseRequest(%s) succeeded", name)
		}
	}
	// A span longer than the one-byte length can carry is refused at
	// append time.
	long := request{ReqID: 1, Op: opDraw, Session: 1, N: 1, Span: string(make([]byte, 256))}
	if _, err := appendRequest(nil, long); err == nil {
		t.Fatal("appendRequest accepted a 256-byte span")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	payload := []byte("key material here")
	body := appendResponseHeader(nil, 77, kindPartial)
	body = append(body, payload...)
	resp, err := parseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReqID != 77 || resp.Kind != kindPartial || !bytes.Equal(resp.Payload, payload) {
		t.Fatalf("response round trip: %+v", resp)
	}
	if _, err := parseResponse([]byte{1, 2, 3}); err == nil {
		t.Fatal("parseResponse accepted a 3-byte body")
	}
}

// TestWireCodeTable: the one-byte wire codes and the envelope slugs are
// a bijection, and every typed error survives server-encode →
// client-decode across the frame protocol's error path.
func TestWireCodeTable(t *testing.T) {
	if len(codeToSlug) != len(slugToCode) {
		t.Fatalf("code table is not a bijection: %d codes, %d slugs", len(codeToSlug), len(slugToCode))
	}
	for b, slug := range codeToSlug {
		if slugToCode[slug] != b {
			t.Fatalf("slug %q maps back to 0x%02x, not 0x%02x", slug, slugToCode[slug], b)
		}
	}
	for _, slug := range []string{
		httpapi.CodeBadRequest, httpapi.CodeDraining, httpapi.CodeDuplicate,
		httpapi.CodeSaturated, httpapi.CodeExhausted, httpapi.CodeClosed,
		httpapi.CodeOrphaned, httpapi.CodeNotFound, httpapi.CodeShutdown,
		httpapi.CodeUnreachable, httpapi.CodeInternal, httpapi.CodeFailed,
	} {
		b, ok := slugToCode[slug]
		if !ok {
			t.Fatalf("envelope slug %q has no wire byte", slug)
		}
		// Server side: typed error → slug → byte. Client side: byte →
		// slug → typed error. The round trip must preserve errors.Is.
		typed := httpapi.ErrorFromCode(slug, "x")
		if code, _ := httpapi.CodeOf(typed); slugToCode[code] != b {
			t.Fatalf("typed error for %q encodes to 0x%02x, want 0x%02x", slug, slugToCode[code], b)
		}
		back := httpapi.ErrorFromCode(codeToSlug[b], "y")
		if code, _ := httpapi.CodeOf(back); code != slug {
			t.Fatalf("wire byte 0x%02x decodes to %v, losing slug %q", b, back, slug)
		}
	}
}

// FuzzFrameCodec: arbitrary bytes through the frame reader and the
// request/response parsers must never panic, and whatever parses must
// re-encode to bytes that parse identically.
func FuzzFrameCodec(f *testing.F) {
	seed, _ := appendRequest(nil, request{ReqID: 3, Op: opBulk, Session: 9, N: 8, Count: 4, Span: "ab"})
	f.Add(byte(frameData), seed)
	f.Add(byte(frameHandshake), []byte(`{"version":1}`))
	f.Add(byte(0xFF), []byte{})
	f.Add(byte(frameData), bytes.Repeat([]byte{0}, 13))
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, body); err != nil {
			if len(body) <= MaxFrameBody {
				t.Fatalf("writeFrame rejected %d-byte body: %v", len(body), err)
			}
			return
		}
		gtyp, gbody, err := readFrame(&buf, nil, 0)
		if err != nil {
			t.Fatalf("readFrame of a written frame: %v", err)
		}
		if gtyp != typ || !bytes.Equal(gbody, body) {
			t.Fatal("frame round trip changed bytes")
		}

		// The request parser on arbitrary bodies: no panic; successful
		// parses must round trip.
		if req, err := parseRequest(body); err == nil {
			re, err := appendRequest(nil, req)
			if err != nil {
				t.Fatalf("re-encode of parsed request: %v", err)
			}
			again, err := parseRequest(re)
			if err != nil || again != req {
				t.Fatalf("request re-parse mismatch: %+v vs %+v (%v)", req, again, err)
			}
		}
		// Same for the response parser.
		if resp, err := parseResponse(body); err == nil {
			re := appendResponseHeader(nil, resp.ReqID, resp.Kind)
			if resp.Kind == kindError {
				re = append(re, resp.Code)
				re = append(re, resp.Message...)
			} else {
				re = append(re, resp.Payload...)
			}
			again, err := parseResponse(re)
			if err != nil || again.ReqID != resp.ReqID || again.Kind != resp.Kind ||
				again.Code != resp.Code || again.Message != resp.Message ||
				!bytes.Equal(again.Payload, resp.Payload) {
				t.Fatalf("response re-parse mismatch (%v)", err)
			}
		}
	})
}
