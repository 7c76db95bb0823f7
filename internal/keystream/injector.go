package keystream

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// Injector wraps a transport.Bus and degrades chosen members: per-send
// delay (a slow radio), outright transmit loss (a dead one), or a
// SIGSTOP-style stall that blocks the member's sends entirely until
// resumed. It is the stall-injection suite's fault model: because the
// degraded member's own node goroutine is what blocks in Send, a stalled
// member also stops draining its inbox — exactly the failure shape of a
// stopped process — and the underlying bus sheds its frames (ShedFrames,
// forwarded by embedding) while the stream keeps producing.
type Injector struct {
	transport.Bus

	mu    sync.Mutex
	delay map[int]time.Duration
	drop  map[int]bool
	stall map[int]chan struct{} // closed = resumed
	done  chan struct{}
}

// NewInjector wraps bus. The zero state injects nothing.
func NewInjector(bus transport.Bus) *Injector {
	return &Injector{
		Bus:   bus,
		delay: make(map[int]time.Duration),
		drop:  make(map[int]bool),
		stall: make(map[int]chan struct{}),
		done:  make(chan struct{}),
	}
}

// SlowMember makes every send call by member id, whatever its burst,
// take at least d.
func (in *Injector) SlowMember(id int, d time.Duration) {
	in.mu.Lock()
	in.delay[id] = d
	in.mu.Unlock()
}

// DropMember silently discards member id's transmissions (data and
// control) without blocking it.
func (in *Injector) DropMember(id int, drop bool) {
	in.mu.Lock()
	in.drop[id] = drop
	in.mu.Unlock()
}

// StallMember blocks member id's next send until ResumeMember(id) or
// Close. The member's goroutine wedges inside Send — it stops reading its
// inbox, like a SIGSTOP'd process.
func (in *Injector) StallMember(id int) {
	in.mu.Lock()
	if _, ok := in.stall[id]; !ok {
		in.stall[id] = make(chan struct{})
	}
	in.mu.Unlock()
}

// ResumeMember releases a stalled member.
func (in *Injector) ResumeMember(id int) {
	in.mu.Lock()
	if gate, ok := in.stall[id]; ok {
		close(gate)
		delete(in.stall, id)
	}
	in.mu.Unlock()
}

// Close releases every stalled member (so their goroutines can exit) and
// closes the wrapped bus.
func (in *Injector) Close() error {
	in.mu.Lock()
	select {
	case <-in.done:
	default:
		close(in.done)
	}
	for id, gate := range in.stall {
		close(gate)
		delete(in.stall, id)
	}
	in.mu.Unlock()
	return in.Bus.Close()
}

func (in *Injector) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := in.Bus.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &injEndpoint{in: in, ep: ep}, nil
}

type injEndpoint struct {
	in *Injector
	ep transport.Endpoint
}

func (e *injEndpoint) ID() int                    { return e.ep.ID() }
func (e *injEndpoint) Recv() <-chan transport.Env { return e.ep.Recv() }
func (e *injEndpoint) Close() error               { return e.ep.Close() }

func (e *injEndpoint) SendData(frame []byte, more ...[]byte) error {
	return e.send(e.ep.SendData, frame, more)
}

func (e *injEndpoint) SendCtrl(frame []byte, more ...[]byte) error {
	return e.send(e.ep.SendCtrl, frame, more)
}

// send applies the member's faults to one send call, whatever its burst.
func (e *injEndpoint) send(fwd func([]byte, ...[]byte) error, frame []byte, more [][]byte) error {
	in := e.in
	id := e.ep.ID()
	in.mu.Lock()
	d := in.delay[id]
	drop := in.drop[id]
	gate := in.stall[id]
	in.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-in.done:
		}
	}
	if d > 0 {
		// Interruptible by Close: a slow member's backlog of delayed sends
		// stops costing time once its block's bus is torn down (the block's
		// bytes are already schedule-determined without it).
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-in.done:
			t.Stop()
		}
	}
	if drop {
		return nil
	}
	return fwd(frame, more...)
}
