package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// Do is the client half of the contract: every HTTP call a client, a
// coordinator or a gate makes to another tier goes through it. It sends
// method on url with body (when non-nil) as JSON and ctx's span id in
// the X-Thinair-Span header, so a traced call chains into the callee's
// ring. A status of 400 or above decodes to its typed error through
// DecodeError; any other response (304 included) goes to read, when
// non-nil, which owns the body until it returns. Do then reads the body
// to EOF, so the keep-alive connection is reused, and closes it.
func Do(ctx context.Context, hc *http.Client, method, url string, body any, read func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span := obs.SpanID(ctx); span != "" {
		req.Header.Set(obs.SpanHeader, span)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return TransportError(ctx, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		return DecodeError(resp)
	}
	if read == nil {
		return nil
	}
	return read(resp)
}

// DoJSON is Do with a success body decoded as JSON into out (nil skips
// the body).
func DoJSON(ctx context.Context, hc *http.Client, method, url string, body, out any) error {
	return Do(ctx, hc, method, url, body, func(resp *http.Response) error {
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// TransportError classifies a failure to send a request or read its
// body. The caller giving up is not the callee being gone: ErrUnreachable
// drives supervision and ownership decisions, so once ctx has ended the
// failure is ctx's own error.
func TransportError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %v", ErrUnreachable, err)
}
