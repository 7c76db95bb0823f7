package client

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// HTTP is the Client implementation over the /v1 HTTP surface. The
// daemon and the coordinator serve the same shape (same paths, same
// error envelope), so one implementation covers both tiers — NewHTTP
// against a daemon draws from its local sessions, against a coordinator
// it draws through the routed worker RPC.
type HTTP struct {
	base string
	hc   *http.Client
}

// NewHTTP returns a Client talking /v1 to the daemon or coordinator at
// base (e.g. "http://127.0.0.1:9309").
func NewHTTP(base string) *HTTP {
	return &HTTP{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// do runs one request, decoding the error envelope on non-2xx statuses.
func (c *HTTP) do(ctx context.Context, method, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if span := obs.SpanID(ctx); span != "" {
		req.Header.Set(obs.SpanHeader, span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	if resp.StatusCode >= 400 {
		err := httpapi.DecodeError(resp)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// Draw consumes n bytes via POST /v1/sessions/{id}/draw.
func (c *HTTP) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodPost,
		fmt.Sprintf("/v1/sessions/%d/draw?bytes=%d", session, n))
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	var body struct {
		Key string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("thinair: decoding draw response: %w", err)
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

// StreamRange reads [off, off+length) via GET /v1/sessions/{id}/stream.
func (c *HTTP) StreamRange(ctx context.Context, session uint64, off, length int64) ([]byte, error) {
	if length <= 0 || length > httpapi.MaxStreamBytes {
		return nil, fmt.Errorf("%w: stream length %d outside 1..%d",
			ErrBadRequest, length, httpapi.MaxStreamBytes)
	}
	resp, err := c.do(ctx, http.MethodGet,
		fmt.Sprintf("/v1/sessions/%d/stream?offset=%d&len=%d", session, off, length))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := make([]byte, length)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		// A short body is the server's loud truncation signal.
		return nil, fmt.Errorf("%w: stream truncated: %v", ErrUnreachable, err)
	}
	return buf, nil
}

// ReaderAt adapts one session's stream surface to io.ReaderAt.
func (c *HTTP) ReaderAt(session uint64) io.ReaderAt {
	return readerAt{fetch: func(off int64, n int64) ([]byte, error) {
		return c.StreamRange(context.Background(), session, off, n)
	}}
}

// Close releases idle connections; sessions stay up.
func (c *HTTP) Close() error {
	c.hc.CloseIdleConnections()
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

// readerAt adapts a range-fetch closure to io.ReaderAt; all three
// Client implementations share it.
type readerAt struct {
	fetch func(off, n int64) ([]byte, error)
}

func (r readerAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	b, err := r.fetch(off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	return copy(p, b), nil
}
