package gate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// ErrInterrupted marks a draw whose connection died between issue and
// response. The gate may or may not have consumed the pool bytes
// server-side before the cut, so replaying the draw could silently
// dispense the same request twice — the reconnecting client therefore
// NEVER retries a draw. Callers see this typed error, decide whether a
// duplicate would be safe for their protocol, and re-issue themselves.
var ErrInterrupted = errors.New("gate: request interrupted by connection loss; not replayed")

// ReconnectConfig parameterizes a ReconnectClient.
type ReconnectConfig struct {
	// Dial establishes one fresh connection. Required.
	Dial func() (*Client, error)
	// InitialBackoff is the pause before the second dial attempt; each
	// further attempt doubles it, with ±25% jitter throughout (the same
	// envelope the backend watch poller uses, and for the same reason: a
	// fleet of clients must not re-dial a restarted gate in lockstep).
	// 0 means 100ms.
	InitialBackoff time.Duration
	// MaxBackoff caps the doubling. 0 means 5s.
	MaxBackoff time.Duration
	// MaxAttempts bounds the dials of one reconnect cycle; when the
	// budget is spent the triggering call fails with the dial error.
	// 0 means 8.
	MaxAttempts int
}

func (c *ReconnectConfig) fill() {
	if c.InitialBackoff == 0 {
		c.InitialBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
}

// ReconnectClient wraps the frame-protocol Client with transparent
// re-dialing: when the underlying connection dies (gate restart, kick,
// network cut), the next call dials a fresh one with jittered
// exponential backoff and proceeds. Only idempotent work is ever
// replayed across the gap:
//
//   - Stream ranges resume from the written offset — the bytes already
//     received stay, the remainder is re-requested on the new
//     connection, and the caller gets each byte exactly once.
//   - Draws are NEVER replayed. A draw cut mid-flight fails fast with
//     ErrInterrupted, because the gate may have consumed the pool bytes
//     before the connection died and a replay would dispense twice.
//
// Typed backend errors (not-found, failed, closed, …) arrive on a live
// connection and are surfaced unchanged — they are answers, not
// connection failures.
type ReconnectClient struct {
	cfg ReconnectConfig

	mu     sync.Mutex
	cur    *Client
	ever   bool // a first connection has been made; later dials are re-dials
	closed bool
	rng    *rand.Rand

	redials atomic.Int64
}

// NewReconnectClient builds the wrapper without dialing; the first call
// connects. Use DialReconnect / DialReconnectWS for an eager first dial.
func NewReconnectClient(cfg ReconnectConfig) *ReconnectClient {
	cfg.fill()
	return &ReconnectClient{
		cfg: cfg,
		rng: rand.New(rand.NewSource(rand.Int63())),
	}
}

// DialReconnect returns a reconnecting client over a gate's TCP
// listener, dialing eagerly so a bad address fails here rather than on
// the first draw.
func DialReconnect(addr string) (*ReconnectClient, error) {
	rc := NewReconnectClient(ReconnectConfig{Dial: func() (*Client, error) { return Dial(addr) }})
	return rc, rc.dialEager()
}

// DialReconnectWS is DialReconnect over a WebSocket upgrade
// (ws://host/path or http://host/path).
func DialReconnectWS(url string) (*ReconnectClient, error) {
	rc := NewReconnectClient(ReconnectConfig{Dial: func() (*Client, error) { return DialWS(url) }})
	return rc, rc.dialEager()
}

func (rc *ReconnectClient) dialEager() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	c, err := rc.cfg.Dial()
	if err != nil {
		return err
	}
	rc.cur = c
	rc.ever = true
	return nil
}

// Redials reports how many fresh connections the client has established
// after its first (chaos tests assert the ride-through actually
// happened).
func (rc *ReconnectClient) Redials() int64 { return rc.redials.Load() }

// live returns a healthy connection, re-dialing with backoff when the
// current one is dead. Concurrent callers serialize on rc.mu so one
// reconnect cycle serves them all.
func (rc *ReconnectClient) live(ctx context.Context) (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, ErrClientClosed
	}
	if rc.cur != nil && !rc.cur.Dead() {
		return rc.cur, nil
	}
	backoff := rc.cfg.InitialBackoff
	for attempt := 1; ; attempt++ {
		if rc.cur != nil {
			rc.cur.Close()
			rc.cur = nil
		}
		c, err := rc.cfg.Dial()
		if err == nil {
			rc.cur = c
			if rc.ever {
				rc.redials.Add(1)
			}
			rc.ever = true
			return c, nil
		}
		if attempt >= rc.cfg.MaxAttempts {
			return nil, fmt.Errorf("gate: reconnect gave up after %d attempts: %w", attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jitterDuration(rc.rng, backoff)):
		}
		if backoff *= 2; backoff > rc.cfg.MaxBackoff {
			backoff = rc.cfg.MaxBackoff
		}
	}
}

// retire drops a dead connection so the next call dials afresh.
func (rc *ReconnectClient) retire(c *Client) {
	rc.mu.Lock()
	if rc.cur == c {
		rc.cur = nil
	}
	rc.mu.Unlock()
	c.Close()
}

// interrupted classifies a call error: true when the connection died
// under the request (the non-replayable case), false for typed backend
// answers and caller-side cancellation.
func (rc *ReconnectClient) interrupted(ctx context.Context, c *Client, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	if !c.Dead() {
		return false // a live connection delivered a real (typed) answer
	}
	rc.retire(c)
	return true
}

// Draw consumes n bytes of key material — at most once. A connection
// death under the draw surfaces as ErrInterrupted instead of a retry.
func (rc *ReconnectClient) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	c, err := rc.live(ctx)
	if err != nil {
		return nil, err
	}
	key, err := c.Draw(ctx, session, n)
	if rc.interrupted(ctx, c, err) {
		return nil, fmt.Errorf("draw of %d bytes from session %d: %w: %v", n, session, ErrInterrupted, err)
	}
	return key, err
}

// DrawN consumes n×count bytes in one round trip — at most once, like
// Draw.
func (rc *ReconnectClient) DrawN(ctx context.Context, session uint64, n, count int) ([][]byte, error) {
	c, err := rc.live(ctx)
	if err != nil {
		return nil, err
	}
	keys, err := c.DrawN(ctx, session, n, count)
	if rc.interrupted(ctx, c, err) {
		return nil, fmt.Errorf("bulk draw %d×%d from session %d: %w: %v", n, count, session, ErrInterrupted, err)
	}
	return keys, err
}

// StreamRange reads [off, off+length) of the session's key stream,
// riding through connection losses: the prefix received before a cut is
// kept and the remainder re-requested from the written offset on the
// next connection — each byte of the range is delivered exactly once.
// Every session's ranges are addressed, so the resume re-reads nothing.
func (rc *ReconnectClient) StreamRange(ctx context.Context, session uint64, off, length int64) ([]byte, error) {
	var buf []byte
	for {
		c, err := rc.live(ctx)
		if err != nil {
			return nil, err
		}
		written := int64(len(buf))
		buf, err = c.streamRangePrefix(ctx, session, off+written, length-written, buf)
		if err == nil {
			return buf, nil
		}
		if !rc.interrupted(ctx, c, err) {
			return nil, err // typed backend answer or caller cancellation
		}
		// Connection death mid-range: loop, resume from the new written
		// offset. live() owns the backoff; its dial budget bounds the loop.
	}
}

// ReaderAt adapts one session's stream surface to io.ReaderAt.
func (rc *ReconnectClient) ReaderAt(session uint64) io.ReaderAt {
	return reconnectReaderAt{rc: rc, session: session}
}

type reconnectReaderAt struct {
	rc      *ReconnectClient
	session uint64
}

func (r reconnectReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	b, err := r.rc.StreamRange(context.Background(), r.session, off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	return copy(p, b), nil
}

// Close shuts the wrapper down; subsequent calls return ErrClientClosed.
func (rc *ReconnectClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.closed = true
	if rc.cur != nil {
		rc.cur.Close()
		rc.cur = nil
	}
	return nil
}

var _ client.Client = (*ReconnectClient)(nil)
