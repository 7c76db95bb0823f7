// Package keypool manages the key material the protocol produces: a
// thread-safe byte pool that banks session secrets and dispenses
// never-reused one-time keys, with optional automatic refill — the
// "continuously refresh the key used to encrypt their communication"
// usage the paper's introduction motivates.
//
// Dispensed bytes are copied out and the pool's own copy is zeroized, so
// a later memory disclosure of the pool cannot recover past keys. Every
// draw runs one locked body, DrawInto; Draw and DrawPad are DrawInto into
// a fresh buffer, and concurrent callers simply queue on the pool mutex.
//
// Two refill styles are supported:
//
//   - Synchronous: a RefillFunc configured via NewWithRefill is invoked
//     from the draw path when the pool runs low. Consecutive failures put
//     the best-effort top-up on hold until fresh material arrives, so a
//     broken refill (radio down, peer gone) cannot turn every Draw into a
//     blocking protocol attempt.
//   - Asynchronous: a background worker (e.g. internal/service's session
//     refresher) selects on LowWaterSignal and Deposits new material; the
//     draw path never blocks on protocol rounds.
package keypool

import (
	"errors"
	"fmt"
	"sync"
)

// ErrExhausted is returned when the pool cannot satisfy a draw.
var ErrExhausted = errors.New("keypool: insufficient key material")

// ErrClosed is returned when drawing from a zeroized pool.
var ErrClosed = errors.New("keypool: pool closed")

// RefillFunc produces more secret bytes (typically by running a protocol
// session). It is invoked synchronously while the pool lock is NOT held.
type RefillFunc func() ([]byte, error)

// refillFailureLimit is how many consecutive RefillFunc errors suspend the
// best-effort low-water top-up. A blocking Draw (one that cannot be served
// from the pool) still attempts a refill and surfaces the error; only the
// "pool can serve the draw but is below the watermark" path backs off, so
// a persistently failing refill cannot make every successful draw pay for
// a doomed protocol session.
const refillFailureLimit = 3

// Stats is a point-in-time snapshot of a pool's lifetime counters, shaped
// for a metrics endpoint: everything a service needs to report pool health
// without guessing.
type Stats struct {
	// Available is the number of unconsumed bytes at snapshot time.
	Available int
	// Deposited and Drawn are lifetime byte counts.
	Deposited int64
	Drawn     int64
	// LowWaterHits counts draws that left the pool below its watermark.
	LowWaterHits int64
	// Refills and RefillErrors count synchronous RefillFunc invocations
	// (successful deposits vs errors). Asynchronous refreshers deposit
	// directly and are accounted by Deposited.
	Refills      int64
	RefillErrors int64
	// Closed reports a zeroized pool: all material wiped, draws fail
	// permanently. A metrics consumer uses it to tell "empty, refilling"
	// from "gone".
	Closed bool
}

// Pool banks secret bytes and dispenses one-time keys.
type Pool struct {
	mu     sync.Mutex
	buf    []byte
	closed bool

	refill   RefillFunc
	lowWater int

	deposited    int64
	drawn        int64
	lowWaterHits int64
	refills      int64
	refillErrors int64
	consecFails  int // consecutive RefillFunc errors; gates best-effort top-up

	// refillMu serializes RefillFunc invocations so concurrent draws do
	// not stampede the (typically expensive) refill.
	refillMu sync.Mutex

	notify chan struct{} // 1-buffered low-water edge signal, lazily created
}

// New returns an empty pool without automatic refill.
func New() *Pool { return &Pool{} }

// NewWithRefill returns a pool that invokes refill whenever a draw would
// leave fewer than lowWater bytes available (and keeps invoking it until
// either the draw is satisfiable or refill errors).
func NewWithRefill(refill RefillFunc, lowWater int) *Pool {
	return &Pool{refill: refill, lowWater: lowWater}
}

// SetLowWater changes the watermark below which the pool signals (and,
// with a RefillFunc, refills). Useful for pools fed by an asynchronous
// refresher, which are created with New.
func (p *Pool) SetLowWater(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lowWater = n
}

// LowWaterSignal returns a channel that receives (with a buffer of one,
// never blocking the draw path) whenever a draw leaves the pool below its
// watermark. A background refresher can select on it to top the pool up
// asynchronously instead of paying for protocol rounds inside Draw.
func (p *Pool) LowWaterSignal() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.notify == nil {
		p.notify = make(chan struct{}, 1)
	}
	return p.notify
}

// Deposit adds secret bytes to the pool. The input is copied; callers may
// zeroize their copy afterwards. Depositing into a closed pool is a no-op
// (the material is already being torn down).
func (p *Pool) Deposit(secret []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.buf = append(p.buf, secret...)
	p.deposited += int64(len(secret))
	if len(secret) > 0 {
		p.consecFails = 0 // fresh material: give refill another chance
	}
}

// Available returns the number of unconsumed bytes.
func (p *Pool) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Available:    len(p.buf),
		Deposited:    p.deposited,
		Drawn:        p.drawn,
		LowWaterHits: p.lowWaterHits,
		Refills:      p.refills,
		RefillErrors: p.refillErrors,
		Closed:       p.closed,
	}
}

// Zeroize wipes and discards all banked material and closes the pool:
// subsequent draws fail with ErrClosed and deposits are dropped. It is the
// shutdown path for a long-lived daemon — after Zeroize a memory
// disclosure recovers nothing.
func (p *Pool) Zeroize() {
	p.mu.Lock()
	defer p.mu.Unlock()
	zero(p.buf)
	p.buf = nil
	p.closed = true
}

// Draw removes and returns n bytes of key material: DrawInto into a
// fresh buffer.
func (p *Pool) Draw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("keypool: negative draw %d", n)
	}
	out := make([]byte, n)
	if err := p.DrawInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// DrawInto fills dst with len(dst) bytes of key material — the one
// locked draw body every dispensing path runs. The caller owns dst, so
// a draw into a reused buffer allocates nothing. The draw is
// all-or-nothing: a short pool leaves dst untouched and consumes
// nothing. Bytes are never reused: the pool's copy is zeroized before the
// region is released. A draw that leaves the pool below its watermark
// signals LowWaterSignal and, with a RefillFunc configured, tops up
// best-effort; a draw the pool cannot serve runs the RefillFunc until it
// can, and without one fails with ErrExhausted.
func (p *Pool) DrawInto(dst []byte) error {
	n := len(dst)
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return ErrClosed
		}
		if len(p.buf) >= n {
			copy(dst, p.buf[:n])
			zero(p.buf[:n])
			p.buf = p.buf[n:]
			p.drawn += int64(n)
			low := len(p.buf) < p.lowWater
			if low {
				p.lowWaterHits++
				if p.notify != nil {
					select {
					case p.notify <- struct{}{}:
					default: // refresher already signaled
					}
				}
			}
			topUp := low && p.refill != nil && p.consecFails < refillFailureLimit
			watermark := p.lowWater
			p.mu.Unlock()
			if topUp {
				// Best-effort top-up; the draw already succeeded.
				_ = p.tryRefill(watermark)
			}
			return nil
		}
		p.mu.Unlock()
		if p.refill == nil {
			return fmt.Errorf("%w: want %d, have %d", ErrExhausted, n, p.Available())
		}
		if err := p.tryRefill(n); err != nil {
			return fmt.Errorf("keypool: refill: %w", err)
		}
	}
}

// tryRefill invokes the refill function once and deposits its output.
// Invocations are serialized: a concurrent draw that arrives while a
// refill is in flight waits for it, then skips its own invocation if the
// wait already left need bytes available.
func (p *Pool) tryRefill(need int) error {
	p.refillMu.Lock()
	defer p.refillMu.Unlock()
	if p.Available() >= need {
		return nil
	}
	secret, err := p.refill()
	p.mu.Lock()
	if err != nil {
		p.refillErrors++
		p.consecFails++
		p.mu.Unlock()
		return err
	}
	if len(secret) == 0 {
		p.refillErrors++
		p.consecFails++
		p.mu.Unlock()
		return errors.New("keypool: refill produced no key material")
	}
	p.refills++
	p.mu.Unlock()
	p.Deposit(secret)
	zero(secret)
	return nil
}

// DrawPad is Draw specialized for one-time-pad use: it returns a pad of
// exactly len(plain) bytes and the XOR of plain with it, consuming the
// pad from the pool. Decryption is XOR with the same pad, so peers
// drawing from pools fed identical session secrets stay in sync.
func (p *Pool) DrawPad(plain []byte) (pad, cipher []byte, err error) {
	pad, err = p.Draw(len(plain))
	if err != nil {
		return nil, nil, err
	}
	cipher = make([]byte, len(plain))
	for i := range plain {
		cipher[i] = plain[i] ^ pad[i]
	}
	return pad, cipher, nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
