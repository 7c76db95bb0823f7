package client

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/httpapi"
)

// HTTP is the Client implementation over the /v1/sessions/{id} routes.
// The daemon, the coordinator and a cluster worker serve the same shape
// (same paths, same error envelope), so one implementation covers every
// tier: against a daemon it draws from its local sessions, against a
// coordinator through the routed worker call, and against a worker (the
// coordinator's and a gate's data-plane hop) from the sessions it hosts
// under their cluster ids. Every request goes through httpapi.Do.
type HTTP struct {
	base string
	hc   *http.Client
}

// NewHTTP returns a Client talking /v1 to the daemon, coordinator or
// worker at base (e.g. "http://127.0.0.1:9309").
func NewHTTP(base string) *HTTP { return NewHTTPWith(base, &http.Client{}) }

// NewHTTPWith is NewHTTP over the caller's http.Client, whose timeout
// and transport then bound every call.
func NewHTTPWith(base string, hc *http.Client) *HTTP {
	return &HTTP{base: strings.TrimRight(base, "/"), hc: hc}
}

// Draw consumes n bytes via POST /v1/sessions/{id}/draw.
func (c *HTTP) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	var body httpapi.DrawResponse
	if err := httpapi.DoJSON(ctx, c.hc, http.MethodPost,
		c.base+"/v1/sessions/"+strconv.FormatUint(session, 10)+"/draw?bytes="+strconv.Itoa(n), nil, &body); err != nil {
		return nil, err
	}
	key, err := hex.DecodeString(body.Key)
	if err != nil {
		return nil, fmt.Errorf("thinair: decoding draw response: %w", err)
	}
	if len(key) != n {
		return nil, fmt.Errorf("thinair: draw returned %d bytes, want %d", len(key), n)
	}
	return key, nil
}

// DrawN consumes n×count bytes in one draw and splits them client-side.
func (c *HTTP) DrawN(ctx context.Context, session uint64, n, count int) ([][]byte, error) {
	total, err := bulkSize(n, count)
	if err != nil {
		return nil, err
	}
	flat, err := c.Draw(ctx, session, total)
	if err != nil {
		return nil, err
	}
	return splitKeys(flat, n, count), nil
}

// StreamRangeTo copies [off, off+n) of GET /v1/sessions/{id}/stream into
// w as the body arrives, never holding the range: a w that implements
// io.ReaderFrom (a gate's frame writer, a caller's slice) reads the
// body straight into its own memory. It returns the bytes written: 0
// with a typed error when the server rejected the read, possibly short
// with an error on a mid-body failure. A body shorter than n (the server
// aborted mid-range) is ErrUnreachable, never a silent short read.
func (c *HTTP) StreamRangeTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	if err := checkStreamLength(n); err != nil {
		return 0, err
	}
	url := c.base + "/v1/sessions/" + strconv.FormatUint(session, 10) +
		"/stream?offset=" + strconv.FormatInt(off, 10) + "&len=" + strconv.FormatInt(n, 10)
	var written int64
	err := httpapi.Do(ctx, c.hc, http.MethodGet, url, nil, func(resp *http.Response) error {
		var err error
		written, err = io.Copy(w, io.LimitReader(resp.Body, n))
		if err != nil {
			return httpapi.TransportError(ctx, err)
		}
		if written < n {
			return fmt.Errorf("%w: stream truncated at %d/%d bytes", ErrUnreachable, written, n)
		}
		return nil
	})
	return written, err
}

// StreamRange reads [off, off+length) via GET /v1/sessions/{id}/stream.
func (c *HTTP) StreamRange(ctx context.Context, session uint64, off, length int64) ([]byte, error) {
	if err := checkStreamLength(length); err != nil {
		return nil, err
	}
	buf := make([]byte, length)
	if _, err := c.StreamRangeTo(ctx, session, off, length, &sliceWriter{p: buf}); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReaderAt adapts one session's stream surface to io.ReaderAt.
func (c *HTTP) ReaderAt(session uint64) io.ReaderAt {
	return httpReaderAt{c: c, session: session}
}

type httpReaderAt struct {
	c       *HTTP
	session uint64
}

// ReadAt streams the range straight into p.
func (r httpReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if _, err := r.c.StreamRangeTo(context.Background(), r.session, off, int64(len(p)), &sliceWriter{p: p}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close releases idle connections; sessions stay up.
func (c *HTTP) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// sliceWriter fills a caller's slice. Its ReadFrom reads a body straight
// into the slice, so io.Copy neither allocates nor copies through a
// buffer of its own.
type sliceWriter struct {
	p []byte
	n int
}

func (w *sliceWriter) Write(b []byte) (int, error) {
	m := copy(w.p[w.n:], b)
	w.n += m
	if m < len(b) {
		return m, io.ErrShortWrite
	}
	return m, nil
}

func (w *sliceWriter) ReadFrom(r io.Reader) (int64, error) {
	m, err := io.ReadFull(r, w.p[w.n:])
	w.n += m
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // a short body is the caller's length check to report
	}
	return int64(m), err
}

// checkStreamLength validates a range length against the one-read cap.
func checkStreamLength(n int64) error {
	if n <= 0 || n > httpapi.MaxStreamBytes {
		return fmt.Errorf("%w: stream length %d outside 1..%d",
			ErrBadRequest, n, httpapi.MaxStreamBytes)
	}
	return nil
}

// bulkSize validates a DrawN shape against the one-draw cap.
func bulkSize(n, count int) (int, error) {
	if n <= 0 || count <= 0 || n > httpapi.MaxDrawBytes/count {
		return 0, fmt.Errorf("%w: bulk draw %d×%d outside 1..%d bytes",
			ErrBadRequest, n, count, httpapi.MaxDrawBytes)
	}
	return n * count, nil
}

// splitKeys cuts one flat draw into count keys of n bytes.
func splitKeys(flat []byte, n, count int) [][]byte {
	keys := make([][]byte, count)
	for i := range keys {
		keys[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return keys
}
