package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/radio"
)

// UDPBus emulates the broadcast medium over loopback UDP sockets: every
// endpoint listens on a socket of its own, and a send writes each
// datagram straight to every other open endpoint. Each receiver flips a
// data frame's erasure coin itself (the same coin as ChanBus), and
// control frames ride a small ARQ (sequence numbers, per-receiver
// acknowledgments, retransmission by the sender) so the paper's
// "reliable broadcast" holds over an actually lossy transport.
//
// One SendData or SendCtrl call travels as a burst: its frames go out as
// length-prefixed entries, in order, in as few datagrams as maxDatagram
// allows. A control datagram is one ARQ unit: one sequence number, and
// one ack from each receiver, which delivers its frames in order. Every
// frame still reaches a receiver's inbox as its own Env, so the erasures,
// BitsSent (each frame's own bits, never headers or length prefixes) and
// ShedFrames are per frame, as on ChanBus.
//
// Datagram layout, big endian:
//
//	byte 0     kind (data, ctrl, ack)
//	bytes 1-2  node id of the endpoint that wrote it
//	bytes 3-6  sequence number (ctrl, and the ctrl unit an ack acks)
//	bytes 7+   data, ctrl: frame entries, each a uint16 length and that
//	           many frame bytes
//
// Any loopback sender can reach an endpoint's socket, so a receiver
// accepts a datagram only from the address the bus recorded for the id
// it names, and drops a data or control datagram whose entries do not
// end exactly at its end whole.
type UDPBus struct {
	erasure float64
	seed    int64
	inbox   int

	mu     sync.Mutex // serializes attach, detach and Close
	closed bool
	// eps lists the open endpoints. It is replaced whole, under mu, so
	// senders and readers load it without the lock.
	eps atomic.Pointer[[]*udpEndpoint]

	bits atomic.Int64
	shed atomic.Int64
	sent [kindAck + 1]atomic.Int64 // datagrams the endpoints wrote, by kind
	wg   sync.WaitGroup            // the endpoints' readers
}

const (
	kindData  = 1
	kindCtrl  = 2
	kindAck   = 3 // receiver -> sender: ctrl delivered
	udpHeader = 7
	udpEntry  = 2 // an entry's length prefix

	// maxDatagram caps every datagram the bus writes: the largest IPv4
	// UDP payload. A frame longer than maxFrame cannot be sent.
	maxDatagram = 65507
	maxFrame    = maxDatagram - udpHeader - udpEntry
)

// Tunables for the ARQ. Aggressive values are fine on loopback.
const (
	retransmitEvery = 10 * time.Millisecond
	maxRetries      = 200
)

// putHeader writes a datagram header into dst[:udpHeader] and returns
// that prefix.
func putHeader(dst []byte, kind byte, from int, seq uint32) []byte {
	dst = dst[:udpHeader]
	dst[0] = kind
	binary.BigEndian.PutUint16(dst[1:3], uint16(from))
	binary.BigEndian.PutUint32(dst[3:7], seq)
	return dst
}

// appendEntry appends frame to a datagram as one length-prefixed entry.
func appendEntry(dg, frame []byte) []byte {
	dg = binary.BigEndian.AppendUint16(dg, uint16(len(frame)))
	return append(dg, frame...)
}

// countEntries returns how many frame entries body holds, or 0 when it
// holds none or an entry's length runs past the end: such a datagram is
// dropped whole.
func countEntries(body []byte) int {
	n := 0
	for len(body) > 0 {
		if len(body) < udpEntry {
			return 0
		}
		l := udpEntry + int(binary.BigEndian.Uint16(body))
		if len(body) < l {
			return 0
		}
		body = body[l:]
		n++
	}
	return n
}

// nextEntry splits the first entry off a body countEntries accepted: its
// frame, capped at its length, and the entries after it.
func nextEntry(body []byte) (frame, rest []byte) {
	l := udpEntry + int(binary.BigEndian.Uint16(body))
	return body[udpEntry:l:l], body[l:]
}

// NewUDPBus creates a loopback UDP bus. Each receiver erases each data
// frame with probability erasure, keyed by seed; each endpoint buffers
// inbox frames (see ChanBus). The bus opens no socket of its own: each
// Endpoint listens on one.
func NewUDPBus(erasure float64, seed int64, inbox int) (*UDPBus, error) {
	return &UDPBus{erasure: erasure, seed: seed, inbox: inbox}, nil
}

// open returns the endpoints open on the bus.
func (b *UDPBus) open() []*udpEndpoint {
	if eps := b.eps.Load(); eps != nil {
		return *eps
	}
	return nil
}

// peer returns the open endpoint with node id id whose socket has
// address addr, or nil: a datagram from anyone else is dropped.
func (b *UDPBus) peer(id int, addr netip.AddrPort) *udpEndpoint {
	for _, ep := range b.open() {
		if ep.id == id && ep.addr == addr {
			return ep
		}
	}
	return nil
}

// BitsSent implements Bus.
func (b *UDPBus) BitsSent() int64 { return b.bits.Load() }

// ShedFrames implements Bus: frames an endpoint dropped because its
// inbox was full.
func (b *UDPBus) ShedFrames() int64 { return b.shed.Load() }

// Close implements Bus. It closes every endpoint the bus handed out and
// returns once their readers have exited and closed their Recv channels:
// each blocks in a read on its own loopback socket, so a bus that left
// one open would strand a goroutine and a file descriptor per endpoint.
func (b *UDPBus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	eps := b.open()
	b.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	b.wg.Wait()
	return nil
}

// Endpoint implements Bus: it listens on a fresh loopback socket, records
// the socket's address for id and starts the endpoint's reader. An id
// already open returns its endpoint, as on ChanBus.
func (b *UDPBus) Endpoint(id int) (Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	eps := b.open()
	for _, ep := range eps {
		if ep.id == id {
			return ep, nil
		}
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("transport: endpoint %d listen: %w", id, err)
	}
	addr := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	ep := &udpEndpoint{
		id:    id,
		bus:   b,
		conn:  conn,
		addr:  netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port()),
		ch:    make(chan Env, b.inbox),
		seen:  make(map[*udpEndpoint]*seqWindow),
		units: make(map[uint32]*ctrlUnit),
		stop:  make(chan struct{}),
	}
	eps = append(slices.Clip(eps), ep)
	b.eps.Store(&eps)
	b.wg.Add(1)
	go ep.readLoop()
	return ep, nil
}

// detach takes a closed endpoint off the bus: senders stop writing to
// it, and stop waiting for its acks.
func (b *UDPBus) detach(e *udpEndpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	eps := slices.DeleteFunc(slices.Clone(b.open()), func(ep *udpEndpoint) bool { return ep == e })
	b.eps.Store(&eps)
}

type udpEndpoint struct {
	id   int
	bus  *UDPBus // its endpoint list, shed and datagram counters
	conn *net.UDPConn
	addr netip.AddrPort // conn's, as receivers check it
	ch   chan Env
	seq  atomic.Uint32
	seen map[*udpEndpoint]*seqWindow // per-sender ctrl dedup, constant memory; the reader's alone

	mu     sync.Mutex
	units  map[uint32]*ctrlUnit // control units waiting for acks, by sequence number
	spare  [][]byte             // datagram buffers of finished sends
	stop   chan struct{}        // closed by Close: releases a send waiting for acks
	closed bool
}

// ctrlUnit is a control datagram its sender has not seen every ack for.
type ctrlUnit struct {
	waiting []*udpEndpoint // receivers that have not acked; under the sender's mu
	done    chan struct{}  // closed by the ack that empties waiting
}

func (e *udpEndpoint) ID() int { return e.id }

// write sends one datagram to the endpoint at to.
func (e *udpEndpoint) write(dg []byte, to netip.AddrPort) {
	e.bus.sent[dg[0]].Add(1)
	_, _ = e.conn.WriteToUDPAddrPort(dg, to) // best effort, like the air; the ARQ covers ctrl
}

func (e *udpEndpoint) SendData(frame []byte, more ...[]byte) error {
	return e.send(kindData, frame, more)
}

// SendCtrl sends the frames to every other open endpoint, one ARQ unit
// per datagram, and retransmits each unit until every receiver has acked
// it or closed. On a closed endpoint, or one closed while it waits, it
// returns ErrClosed at once, as ChanBus does: a member still draining its
// inbox when its block's bus closes must not hold the block's teardown
// for the whole retry budget.
func (e *udpEndpoint) SendCtrl(frame []byte, more ...[]byte) error {
	return e.send(kindCtrl, frame, more)
}

// send packs frame and then more into datagrams of kind, in order, each
// holding as many whole frames as maxDatagram allows, and sends each
// before the next is packed. The datagram buffer is reused from call to
// call: a concurrent call on the same endpoint takes one of its own.
func (e *udpEndpoint) send(kind byte, frame []byte, more [][]byte) error {
	for i := 0; i <= len(more); i++ {
		if f := frameAt(frame, more, i); len(f) > maxFrame {
			return fmt.Errorf("transport: a %d-byte frame exceeds the %d-byte datagram", len(f), maxDatagram)
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	var dg []byte
	if n := len(e.spare); n > 0 {
		dg, e.spare = e.spare[n-1], e.spare[:n-1]
	}
	e.mu.Unlock()
	if cap(dg) < udpHeader {
		dg = make([]byte, udpHeader)
	}
	var err error
	for i := 0; i <= len(more) && err == nil; {
		first := i
		dg, i = packEntries(dg[:udpHeader], frame, more, i)
		e.bus.bits.Add(int64(len(dg)-udpHeader-udpEntry*(i-first)) * 8)
		err = e.flush(kind, dg)
	}
	e.mu.Lock()
	e.spare = append(e.spare, dg)
	e.mu.Unlock()
	return err
}

// packEntries appends entries to dg, from frame i of the burst (frame,
// then more) on, while they fit in maxDatagram, and returns dg and the
// index of the first frame left out. A frame of at most maxFrame bytes
// always fits a datagram holding only its header.
func packEntries(dg, frame []byte, more [][]byte, i int) ([]byte, int) {
	for ; i <= len(more); i++ {
		f := frameAt(frame, more, i)
		if len(dg)+udpEntry+len(f) > maxDatagram {
			break
		}
		dg = appendEntry(dg, f)
	}
	return dg, i
}

// flush writes one packed datagram to every other open endpoint: a data
// datagram once, a control datagram under a fresh sequence number until
// each receiver has acked it or closed.
func (e *udpEndpoint) flush(kind byte, dg []byte) error {
	if kind == kindData {
		putHeader(dg, kind, e.id, 0)
		for _, ep := range e.bus.open() {
			if ep != e {
				e.write(dg, ep.addr)
			}
		}
		return nil
	}
	seq := e.seq.Add(1)
	putHeader(dg, kind, e.id, seq)
	u := &ctrlUnit{done: make(chan struct{})}
	for _, ep := range e.bus.open() {
		if ep != e {
			u.waiting = append(u.waiting, ep)
		}
	}
	e.mu.Lock()
	e.units[seq] = u
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.units, seq)
		e.mu.Unlock()
	}()
	for i := 0; i < maxRetries; i++ {
		e.mu.Lock()
		// A receiver that closed acks nothing more.
		eps := e.bus.open()
		u.waiting = slices.DeleteFunc(u.waiting, func(ep *udpEndpoint) bool { return !slices.Contains(eps, ep) })
		for _, ep := range u.waiting {
			e.write(dg, ep.addr)
		}
		left := len(u.waiting)
		e.mu.Unlock()
		if left == 0 {
			return nil
		}
		select {
		case <-u.done:
			return nil
		case <-e.stop:
			return ErrClosed
		case <-time.After(retransmitEvery):
		}
	}
	return fmt.Errorf("transport: ctrl seq %d not acked", seq)
}

// acked records from's ack of control unit seq.
func (e *udpEndpoint) acked(from *udpEndpoint, seq uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	u := e.units[seq]
	if u == nil {
		return
	}
	if i := slices.Index(u.waiting, from); i >= 0 {
		u.waiting = slices.Delete(u.waiting, i, i+1)
		if len(u.waiting) == 0 {
			close(u.done)
		}
	}
}

func (e *udpEndpoint) Recv() <-chan Env { return e.ch }

// Close takes the endpoint off the bus and shuts its socket down; the
// reader observes the error and closes the Recv channel (exactly once),
// so receivers always see a channel close regardless of who initiated
// the teardown.
func (e *udpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.stop)
	e.mu.Unlock()
	e.bus.detach(e)
	return e.conn.Close()
}

func (e *udpEndpoint) readLoop() {
	defer e.bus.wg.Done()
	defer close(e.ch)
	buf := make([]byte, 1<<16)
	ack := make([]byte, udpHeader)
	for {
		n, addr, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			// Closed, or the socket failed. Either way the endpoint is
			// done: release its socket, or a later Close would find it
			// marked closed and leak the descriptor.
			e.Close()
			return
		}
		if n < udpHeader {
			continue
		}
		from := e.bus.peer(int(binary.BigEndian.Uint16(buf[1:3])), addr)
		if from == nil {
			continue
		}
		seq := binary.BigEndian.Uint32(buf[3:7])
		body := buf[udpHeader:n]
		switch buf[0] {
		case kindAck:
			e.acked(from, seq)
		case kindData:
			if countEntries(body) > 0 {
				e.deliver(from.id, false, body)
			}
		case kindCtrl:
			if countEntries(body) == 0 {
				continue // malformed: dropped whole, unacked
			}
			e.write(putHeader(ack, kindAck, e.id, seq), addr) // a duplicate too: its first ack may be lost
			w := e.seen[from]
			if w == nil {
				w = &seqWindow{}
				e.seen[from] = w
			}
			if !w.observe(seq) {
				e.deliver(from.id, true, body)
			}
		}
	}
}

// deliver hands the frames of a datagram body countEntries accepted to
// the inbox in order, without blocking the socket reader: a full inbox
// sheds the frame. A data frame is kept only if the erasure coin
// delivers it to this endpoint. The frames kept are copied once, into
// one buffer they are views of; body, the reader's own buffer, is
// compacted in place first.
func (e *udpEndpoint) deliver(from int, reliable bool, body []byte) {
	kept := body
	if !reliable {
		kept = body[:0]
		for rest := body; len(rest) > 0; {
			var frame []byte
			frame, rest = nextEntry(rest)
			round, seq := coinKey(frame)
			if radio.Delivered(e.bus.seed, round, seq, e.id, e.bus.erasure) {
				kept = appendEntry(kept, frame) // never past frame: a move toward the front
			}
		}
	}
	for rest := bytes.Clone(kept); len(rest) > 0; {
		var frame []byte
		frame, rest = nextEntry(rest)
		select {
		case e.ch <- Env{From: from, Reliable: reliable, Frame: frame}:
		default:
			e.bus.shed.Add(1)
		}
	}
}
