package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/radio"
)

// ChanBus is an in-process broadcast domain. Each data frame reaches each
// receiver according to the shared erasure coin (see coinKey); control
// frames are delivered to every endpoint.
//
// Every receiver is handed the same frame, not a copy. Frame lifetime:
// receivers treat Env.Frame as read-only, and a sender keeps a frame
// unchanged from the send until Close has returned and every goroutine
// draining the bus's endpoints has exited — a frame may sit unread in an
// inbox until then. Senders may therefore carve frames from a reused
// buffer, and rewind it only after that point.
//
// Each endpoint's inbox holds the constructor's inbox frames. A full
// inbox sheds the frame (counted by ShedFrames) instead of failing the
// send, so a receiver that stops draining — a stalled member, a slow
// observer — costs only its own frames. A sender that paces itself to
// its receivers (as a keystream block does, sizing the inbox to its
// pipeline) sheds nothing.
//
// A bus built by NewChanBusOver delivers into inboxes its caller owns,
// so a caller that builds one bus after another can reuse them. Close stops
// delivery but leaves those inboxes open: their receivers stop on a
// signal of their own, and the caller drains them before reusing them.
type ChanBus struct {
	erasure float64
	seed    int64
	inbox   int
	owned   []chan Env // caller-owned inboxes, by endpoint id

	mu        sync.Mutex
	endpoints map[int]*chanEndpoint
	closed    bool

	bits atomic.Int64
	shed atomic.Int64
}

// NewChanBus creates a bus erasing each data frame at each receiver with
// probability erasure, keyed by seed, whose endpoints each buffer inbox
// frames.
func NewChanBus(erasure float64, seed int64, inbox int) *ChanBus {
	return &ChanBus{erasure: erasure, seed: seed, inbox: inbox, endpoints: make(map[int]*chanEndpoint)}
}

// NewChanBusOver is NewChanBus over inboxes the caller owns: endpoint id
// receives into inboxes[id], and an endpoint beyond them gets an inbox of
// its own as deep as inboxes[0]. Close leaves the caller's inboxes open.
func NewChanBusOver(erasure float64, seed int64, inboxes []chan Env) *ChanBus {
	b := NewChanBus(erasure, seed, 0)
	if len(inboxes) > 0 {
		b.inbox = cap(inboxes[0])
	}
	b.owned = inboxes
	return b
}

// Endpoint implements Bus.
func (b *ChanBus) Endpoint(id int) (Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if ep, ok := b.endpoints[id]; ok {
		return ep, nil
	}
	ep := &chanEndpoint{bus: b, id: id}
	if id >= 0 && id < len(b.owned) {
		ep.ch, ep.borrowed = b.owned[id], true
	} else {
		ep.ch = make(chan Env, b.inbox)
	}
	b.endpoints[id] = ep
	return ep, nil
}

// BitsSent implements Bus.
func (b *ChanBus) BitsSent() int64 { return b.bits.Load() }

// ShedFrames implements Bus.
func (b *ChanBus) ShedFrames() int64 { return b.shed.Load() }

// Close implements Bus.
func (b *ChanBus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for _, ep := range b.endpoints {
		if !ep.borrowed {
			close(ep.ch)
		}
	}
	return nil
}

// broadcast delivers a send call's burst, frame by frame in order, each
// under its own coin (control frames under none).
func (b *ChanBus) broadcast(from int, reliable bool, frame []byte, more [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	for i := 0; i <= len(more); i++ {
		f := frameAt(frame, more, i)
		round, seq := coinKey(f)
		b.bits.Add(int64(len(f)) * 8)
		env := Env{From: from, Reliable: reliable, Frame: f}
		for id, ep := range b.endpoints {
			if id == from || !reliable && !radio.Delivered(b.seed, round, seq, id, b.erasure) {
				continue
			}
			select {
			case ep.ch <- env:
			default:
				b.shed.Add(1)
			}
		}
	}
	return nil
}

type chanEndpoint struct {
	bus      *ChanBus
	id       int
	ch       chan Env
	borrowed bool // ch is the caller's: Close leaves it open
}

func (e *chanEndpoint) ID() int { return e.id }

func (e *chanEndpoint) SendData(frame []byte, more ...[]byte) error {
	return e.bus.broadcast(e.id, false, frame, more)
}

func (e *chanEndpoint) SendCtrl(frame []byte, more ...[]byte) error {
	return e.bus.broadcast(e.id, true, frame, more)
}

func (e *chanEndpoint) Recv() <-chan Env { return e.ch }

func (e *chanEndpoint) Close() error { return nil }
