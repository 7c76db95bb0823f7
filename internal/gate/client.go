package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// ErrClientClosed is returned by calls on a closed (or kicked) Client.
var ErrClientClosed = errors.New("gate: client closed")

// Client is the frame-protocol implementation of the thinair Client
// interface: one persistent connection, requests multiplexed by id.
//
// It reads on demand instead of dedicating a goroutine per connection:
// whichever caller is waiting for a response takes the reader role
// (readSem), parses frames as they arrive, and hands responses for
// other request ids to their waiters. A client with no call in flight
// has zero goroutines (heartbeats aside) — the property that lets the
// bench hold 100k+ mock clients in one process.
type Client struct {
	conn net.Conn

	readSem chan struct{} // cap 1: its holder is the connection's reader
	readBuf []byte        // owned by the readSem holder; at most maxReadBuf

	writeMu sync.Mutex

	mu      sync.Mutex
	waiters map[uint32]*pending
	nextID  uint32
	err     error // terminal error, set once

	heartbeat time.Duration
	hbStop    chan struct{}
	closeOnce sync.Once
}

// pending collects one request's responses. The queue is unbounded so
// the reader can never block delivering to a slow waiter (memory is
// bounded by the stream range the waiter itself asked for).
//
// A stream range's waiter also hands over a sink: its result buffer.
// The reader appends each partial and final payload straight into it
// under mu, so a chunk is copied once, from the read buffer into the
// range. The waiter detaches the sink (under mu) after it has left the
// waiter map, so no reader writes into the buffer once its call has
// returned.
type pending struct {
	mu     sync.Mutex
	queue  []response
	notify chan struct{} // cap 1, sticky wakeup
	sink   []byte
}

// newPending returns a waiter; a non-nil sink receives its payloads.
func newPending(sink []byte) *pending {
	return &pending{notify: make(chan struct{}, 1), sink: sink}
}

// Dial connects to a gate's TCP listener and performs the handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the handshake on an established connection (TCP,
// net.Pipe, or a WebSocket adapter) and returns the ready Client. On
// error the connection is left to the caller to close.
func NewClient(conn net.Conn) (*Client, error) {
	hs, _ := json.Marshal(handshake{Version: protocolVersion})
	if err := writeFrame(conn, frameHandshake, hs); err != nil {
		return nil, fmt.Errorf("gate: handshake: %w", err)
	}
	typ, body, err := readFrame(conn, nil, maxControlBody)
	if err != nil {
		return nil, fmt.Errorf("gate: handshake: %w", err)
	}
	if typ == frameKick {
		return nil, fmt.Errorf("gate: kicked during handshake: %s", body)
	}
	if typ != frameHandshake {
		return nil, fmt.Errorf("gate: handshake: unexpected frame type 0x%02x", typ)
	}
	var ack handshakeAck
	if err := json.Unmarshal(body, &ack); err != nil || ack.Version != protocolVersion {
		return nil, errors.New("gate: handshake: unsupported server version")
	}
	if err := writeFrame(conn, frameHandshakeAck, nil); err != nil {
		return nil, fmt.Errorf("gate: handshake: %w", err)
	}
	c := &Client{
		conn:      conn,
		readSem:   make(chan struct{}, 1),
		waiters:   make(map[uint32]*pending),
		heartbeat: time.Duration(ack.HeartbeatMS) * time.Millisecond,
		hbStop:    make(chan struct{}),
	}
	if c.heartbeat > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// heartbeatLoop keeps the connection alive at the server-advertised
// interval. Echo frames are drained by whichever caller holds the
// reader role; an idle client leaves them in the socket buffer, where a
// handful of 4-byte echoes are harmless.
func (c *Client) heartbeatLoop() {
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			c.writeMu.Lock()
			err := writeFrame(c.conn, frameHeartbeat, nil)
			c.writeMu.Unlock()
			if err != nil {
				c.fail(fmt.Errorf("gate: heartbeat: %w", err))
				return
			}
		}
	}
}

// fail records the terminal error, closes the connection, and wakes
// every waiter so no caller stays parked on a dead connection.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	waiters := make([]*pending, 0, len(c.waiters))
	for _, p := range c.waiters {
		waiters = append(waiters, p)
	}
	c.mu.Unlock()
	c.conn.Close()
	for _, p := range waiters {
		p.wake()
	}
}

// Dead reports whether the connection hit its terminal error (kicked,
// peer gone, heartbeat failure, or an explicit Close). Calls on a dead
// client fail fast; ReconnectClient uses this to tell a connection
// death (redial and, where safe, resume) from a typed backend error
// (surface to the caller).
func (c *Client) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// Close shuts the connection down. Outstanding calls return
// ErrClientClosed.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		if c.heartbeat > 0 {
			close(c.hbStop)
		}
		c.fail(ErrClientClosed)
	})
	return nil
}

func (p *pending) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// deliver hands one response to the waiter. Its payload aliases the
// reader's buffer, so it is appended to the sink — or, without one,
// copied — before the buffer is reused for the next frame.
func (p *pending) deliver(resp response) {
	p.mu.Lock()
	if p.sink != nil && resp.Kind != kindError {
		p.sink = append(p.sink, resp.Payload...)
		resp.Payload = nil
	} else if len(resp.Payload) > 0 {
		resp.Payload = append([]byte(nil), resp.Payload...)
	}
	p.queue = append(p.queue, resp)
	p.mu.Unlock()
	p.wake()
}

// detach takes the sink back with every payload delivered so far. Call
// it after forget: a reader that found the waiter before then has
// finished its append once detach holds mu.
func (p *pending) detach() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	sink := p.sink
	p.sink = nil
	return sink
}

func (p *pending) pop() (response, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return response{}, false
	}
	r := p.queue[0]
	// Shift rather than reslice, so the queue reuses its array instead
	// of growing a new one for every few responses.
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = response{}
	p.queue = p.queue[:n]
	return r, true
}

// send registers p as the request's waiter and writes the request
// frame. It returns the request id it assigned: req is a copy, so the
// caller has no other way to learn which waiter to forget.
func (c *Client) send(req request, p *pending) (uint32, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.nextID++
	req.ReqID = c.nextID
	c.waiters[req.ReqID] = p
	c.mu.Unlock()

	frame, err := appendRequest(make([]byte, frameHeaderLen, frameHeaderLen+64), req)
	if err != nil {
		c.forget(req.ReqID)
		return 0, err
	}
	putFrameHeader(frame, frameData)
	c.writeMu.Lock()
	_, err = c.conn.Write(frame)
	c.writeMu.Unlock()
	if err != nil {
		c.forget(req.ReqID)
		c.fail(fmt.Errorf("gate: send: %w", err))
		return 0, err
	}
	return req.ReqID, nil
}

func (c *Client) forget(reqID uint32) {
	c.mu.Lock()
	delete(c.waiters, reqID)
	c.mu.Unlock()
}

// next blocks until the waiter's next response arrives, taking the
// reader role whenever it is free. ctx cancellation abandons the
// request (late responses for it are discarded by whoever reads them).
func (c *Client) next(ctx context.Context, reqID uint32, p *pending) (response, error) {
	for {
		if r, ok := p.pop(); ok {
			return r, nil
		}
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil {
			return response{}, err
		}
		select {
		case <-p.notify:
			// Something was delivered (or this is a failure wakeup);
			// loop to pop or observe the terminal error.
		case c.readSem <- struct{}{}:
			// Reader role acquired: responses may have landed between the
			// pop above and now, so recheck before blocking in a read.
			if r, ok := p.pop(); ok {
				<-c.readSem
				return r, nil
			}
			rerr := c.readOne()
			<-c.readSem
			if rerr != nil {
				c.fail(rerr)
				return response{}, rerr
			}
		case <-ctx.Done():
			c.forget(reqID)
			return response{}, ctx.Err()
		}
	}
}

// maxReadBuf bounds the read buffer a client keeps between frames. A
// larger frame — a stream partial — is read into a frame borrowed from
// the gate-wide streamFrames pool and handed back once dispatched, so an
// idle client holds no chunk-sized buffer (a process may hold 100k+
// clients).
const maxReadBuf = 4 << 10

// readOne reads and dispatches a single frame. Runs only while holding
// the reader role. Dispatch copies the payload out, so the body — key
// material, mostly — is cleared before its buffer is reused or pooled.
func (c *Client) readOne() error {
	typ, n, err := readFrameHeader(c.conn, 0)
	if err != nil {
		return fmt.Errorf("gate: read: %w", err)
	}
	var body []byte
	switch {
	case n <= maxReadBuf:
		if n > cap(c.readBuf) {
			c.readBuf = make([]byte, n)
		}
		body = c.readBuf[:n]
	case n <= dataHeaderLen+httpapi.StreamChunk:
		fp := streamFrames.Get().(*[]byte)
		defer streamFrames.Put(fp)
		body = (*fp)[:n]
	default:
		body = make([]byte, n)
	}
	defer clear(body)
	if _, err := io.ReadFull(c.conn, body); err != nil {
		return fmt.Errorf("gate: read: %w", err)
	}
	switch typ {
	case frameHeartbeat:
		return nil // server echo of our own heartbeat
	case frameKick:
		return fmt.Errorf("gate: kicked: %s", body)
	case frameData:
		resp, err := parseResponse(body)
		if err != nil {
			return err
		}
		c.mu.Lock()
		p := c.waiters[resp.ReqID]
		c.mu.Unlock()
		if p != nil {
			p.deliver(resp)
		}
		return nil
	default:
		return fmt.Errorf("gate: unexpected frame type 0x%02x", typ)
	}
}

// call runs one request expecting a single final (or error) response.
func (c *Client) call(ctx context.Context, req request) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req.Span = obs.SpanID(ctx)
	p := newPending(nil)
	reqID, err := c.send(req, p)
	if err != nil {
		return nil, err
	}
	defer c.forget(reqID)
	for {
		resp, err := c.next(ctx, reqID, p)
		if err != nil {
			return nil, err
		}
		switch resp.Kind {
		case kindFinal:
			return resp.Payload, nil
		case kindError:
			return nil, responseError(resp)
		case kindPartial:
			return nil, fmt.Errorf("gate: unexpected partial response")
		}
	}
}

// responseError maps an error response's wire code back to the typed
// error it stands for.
func responseError(resp response) error {
	slug, ok := codeToSlug[resp.Code]
	if !ok {
		return fmt.Errorf("gate: server error: %s", resp.Message)
	}
	return httpapi.ErrorFromCode(slug, resp.Message)
}

// Draw consumes and returns n bytes of the session's key material.
func (c *Client) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	if n <= 0 || n > httpapi.MaxDrawBytes {
		return nil, fmt.Errorf("%w: draw of %d bytes outside 1..%d",
			client.ErrBadRequest, n, httpapi.MaxDrawBytes)
	}
	key, err := c.call(ctx, request{Op: opDraw, Session: session, N: uint32(n)})
	if err != nil {
		return nil, err
	}
	if len(key) != n {
		return nil, fmt.Errorf("gate: draw returned %d bytes, want %d", len(key), n)
	}
	return key, nil
}

// DrawN consumes n×count bytes in one round trip, split into count keys.
func (c *Client) DrawN(ctx context.Context, session uint64, n, count int) ([][]byte, error) {
	if n <= 0 || count <= 0 || n > httpapi.MaxDrawBytes/count {
		return nil, fmt.Errorf("%w: bulk draw %d×%d outside 1..%d bytes",
			client.ErrBadRequest, n, count, httpapi.MaxDrawBytes)
	}
	flat, err := c.call(ctx, request{
		Op: opBulk, Session: session, N: uint32(n), Count: uint32(count),
	})
	if err != nil {
		return nil, err
	}
	if len(flat) != n*count {
		return nil, fmt.Errorf("gate: bulk draw returned %d bytes, want %d", len(flat), n*count)
	}
	keys := make([][]byte, count)
	for i := range keys {
		keys[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return keys, nil
}

// StreamRange reads length bytes at offset off of the session's key
// stream, reassembling the partial-frame chunks the gate relays from
// the owning worker.
func (c *Client) StreamRange(ctx context.Context, session uint64, off, length int64) ([]byte, error) {
	buf, err := c.streamRangePrefix(ctx, session, off, length, nil)
	if err != nil {
		// Accumulated partials are discarded: truncation stays loud.
		return nil, err
	}
	return buf, nil
}

// streamRangePrefix is StreamRange keeping the received prefix on
// failure: the range's bytes are appended to buf, and on error buf
// holds every partial that arrived before the failure. ReconnectClient
// resumes an interrupted range from exactly that offset on a fresh
// connection, so bytes are delivered exactly once even across a gate
// restart. Plain StreamRange discards the prefix instead.
func (c *Client) streamRangePrefix(ctx context.Context, session uint64, off, length int64, buf []byte) ([]byte, error) {
	if length <= 0 || length > httpapi.MaxStreamBytes {
		return buf, fmt.Errorf("%w: stream length %d outside 1..%d",
			client.ErrBadRequest, length, httpapi.MaxStreamBytes)
	}
	if err := ctx.Err(); err != nil {
		return buf, err
	}
	req := request{Op: opStream, Session: session, Off: off, Len: length, Span: obs.SpanID(ctx)}
	if buf == nil {
		buf = make([]byte, 0, length)
	}
	start := len(buf)
	p := newPending(buf)
	reqID, err := c.send(req, p)
	if err == nil {
		err = c.awaitStream(ctx, reqID, p)
		// Forget, then detach: once the waiter has left the map no
		// reader can find it, and detach waits out one that already had.
		c.forget(reqID)
	}
	buf = p.detach()
	if got := int64(len(buf) - start); err == nil && got != length {
		err = fmt.Errorf("gate: stream returned %d bytes, want %d", got, length)
	}
	return buf, err
}

// awaitStream waits for a stream's final or error response; the
// payloads land in p's sink.
func (c *Client) awaitStream(ctx context.Context, reqID uint32, p *pending) error {
	for {
		resp, err := c.next(ctx, reqID, p)
		if err != nil {
			return err
		}
		switch resp.Kind {
		case kindFinal:
			return nil
		case kindError:
			return responseError(resp)
		}
	}
}

// ReaderAt adapts one session's stream surface to io.ReaderAt.
func (c *Client) ReaderAt(session uint64) io.ReaderAt {
	return gateReaderAt{c: c, session: session}
}

type gateReaderAt struct {
	c       *Client
	session uint64
}

func (r gateReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	// The range is appended straight into p. Capping the sink at len(p)
	// keeps an over-long reply from writing past it: append would move
	// it to a fresh array, and the length check fails the call.
	if _, err := r.c.streamRangePrefix(context.Background(), r.session, off, int64(len(p)), p[:0:len(p)]); err != nil {
		return 0, err
	}
	return len(p), nil
}

var _ client.Client = (*Client)(nil)
