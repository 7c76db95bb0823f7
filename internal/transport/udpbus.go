package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/radio"
)

// UDPBus emulates the broadcast medium over loopback UDP sockets: every
// node dials a hub, data frames are fanned out with per-receiver erasures
// (the same coin as ChanBus), and control frames ride a small ARQ
// (sequence numbers, per-receiver acknowledgments, retransmission timers)
// so the paper's "reliable broadcast" holds over an actually lossy
// transport.
//
// One SendData or SendCtrl call travels as a burst: its frames go out as
// length-prefixed entries, in order, in as few datagrams as maxDatagram
// allows. The hub splits a data datagram, flips each frame's own erasure
// coin for each receiver, and sends each receiver one datagram holding
// the frames that receiver gets. A control datagram is one ARQ unit: one
// sequence number, one hub accept-ack, and one ack from each receiver,
// which delivers its frames in order. Every frame still reaches a
// receiver's inbox as its own Env, so the erasures, BitsSent (each
// frame's own bits, never headers or length prefixes) and ShedFrames are
// per frame, as on ChanBus.
//
// Datagram layout (hub <-> client), big endian:
//
//	byte 0     kind (hello, helloAck, data, ctrl, ctrlAck, ack)
//	bytes 1-2  node id (data, ctrl: the frames' sender)
//	bytes 3-6  sequence number (ctrl, ctrlAck, ack)
//	bytes 7+   data, ctrl: frame entries, each a uint16 length and that
//	           many frame bytes; ack: the ctrl sender's node id (uint16)
//
// The hub answers any loopback sender, so a data or control datagram
// whose entries do not end exactly at its end is dropped whole, at the
// hub and at the endpoint, and a node id keeps the address whose hello
// registered it first.
type UDPBus struct {
	erasure float64
	seed    int64
	inbox   int

	conn *net.UDPConn

	mu sync.Mutex
	// peers is written only by readLoop, under mu; readLoop itself reads
	// it without the lock.
	peers   map[int]*udpPeer
	pending map[pendingKey]*pendingCtrl
	seen    map[int]*seqWindow // per-sender ctrl dedup, constant memory
	eps     []*udpEndpoint     // every endpoint this bus handed out
	closed  bool

	bits atomic.Int64
	shed atomic.Int64
	sent [kindAck + 1]atomic.Int64 // datagrams the hub and endpoints wrote, by kind
	wg   sync.WaitGroup
}

// udpPeer is a registered endpoint as the hub sees it.
type udpPeer struct {
	addr netip.AddrPort
	out  []byte // the data datagram being built for it; readLoop's alone
}

type pendingKey struct {
	from int
	seq  uint32
}

type pendingCtrl struct {
	datagram []byte       // as its sender wrote it: forwarded and retransmitted unchanged
	waiting  map[int]bool // receivers that have not acked yet
	tries    int
}

const (
	kindHello    = 1
	kindHelloAck = 2
	kindData     = 3
	kindCtrl     = 4
	kindCtrlAck  = 5 // hub -> sender: ctrl accepted
	kindAck      = 6 // receiver -> hub: ctrl delivered
	udpHeader    = 7
	udpEntry     = 2 // an entry's length prefix

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

// NewUDPBus starts a hub on a loopback UDP port. The hub erases each data
// frame at each receiver with probability erasure, keyed by seed; each
// client endpoint buffers inbox frames (see ChanBus).
func NewUDPBus(erasure float64, seed int64, inbox int) (*UDPBus, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("transport: hub listen: %w", err)
	}
	b := &UDPBus{
		erasure: erasure,
		seed:    seed,
		inbox:   inbox,
		conn:    conn,
		peers:   make(map[int]*udpPeer),
		pending: make(map[pendingKey]*pendingCtrl),
		seen:    make(map[int]*seqWindow),
	}
	b.wg.Add(2)
	go b.readLoop()
	go b.retransmitLoop()
	return b, nil
}

// Addr returns the hub's UDP address.
func (b *UDPBus) Addr() *net.UDPAddr { return b.conn.LocalAddr().(*net.UDPAddr) }

// BitsSent implements Bus.
func (b *UDPBus) BitsSent() int64 { return b.bits.Load() }

// ShedFrames implements Bus: frames a client endpoint dropped because its
// inbox was full.
func (b *UDPBus) ShedFrames() int64 { return b.shed.Load() }

// Close implements Bus. It tears down the hub socket AND every endpoint
// the bus handed out: a client endpoint blocks in a read on its own
// loopback socket, so only closing the hub would leave one goroutine and
// one file descriptor stranded per endpoint — the lifecycle bug a
// long-running multi-session daemon hits first.
func (b *UDPBus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	eps := append([]*udpEndpoint(nil), b.eps...)
	b.mu.Unlock()
	err := b.conn.Close()
	for _, ep := range eps {
		ep.Close()
	}
	b.wg.Wait()
	return err
}

// write sends one datagram from the hub.
func (b *UDPBus) write(dg []byte, to netip.AddrPort) {
	b.sent[dg[0]].Add(1)
	_, _ = b.conn.WriteToUDPAddrPort(dg, to) // best effort, like the air; ARQ covers ctrl
}

func (b *UDPBus) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, 1<<16)
	reply := make([]byte, udpHeader) // helloAck and ctrlAck
	var fwd []netip.AddrPort         // acceptCtrl's receivers, reused
	for {
		n, addr, err := b.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		if n < udpHeader {
			continue
		}
		dg := buf[:n]
		kind := dg[0]
		from := int(binary.BigEndian.Uint16(dg[1:3]))
		seq := binary.BigEndian.Uint32(dg[3:7])
		switch kind {
		case kindHello:
			// An id keeps the first address that registered it: a
			// hello for it from any other loopback sender is ignored,
			// or that sender would take over the member's traffic.
			b.mu.Lock()
			p := b.peers[from]
			if p == nil {
				p = &udpPeer{addr: addr}
				b.peers[from] = p
			}
			b.mu.Unlock()
			if p.addr == addr {
				b.write(putHeader(reply, kindHelloAck, from, 0), addr) // the first hello, or its retry
			}
		case kindData:
			b.fanoutData(from, dg)
		case kindCtrl:
			fwd = b.acceptCtrl(from, seq, dg, reply, fwd[:0])
		case kindAck:
			if n < udpHeader+2 {
				continue
			}
			b.mu.Lock()
			key := pendingKey{from: int(binary.BigEndian.Uint16(dg[udpHeader:])), seq: seq}
			if p, ok := b.pending[key]; ok {
				delete(p.waiting, from)
				if len(p.waiting) == 0 {
					delete(b.pending, key)
				}
			}
			b.mu.Unlock()
		}
	}
}

// fanoutData sends each receiver one datagram holding the frames of a
// data datagram that the erasure coin delivers to it.
func (b *UDPBus) fanoutData(from int, dg []byte) {
	if !b.route(from, dg) {
		return
	}
	for id, p := range b.peers {
		if id != from && len(p.out) > udpHeader {
			b.write(p.out, p.addr)
		}
	}
}

// route splits a data datagram into its frames and flips each frame's
// coin for every registered receiver, building in each receiver's reused
// buffer the datagram of the frames it gets. It reports false, and
// builds nothing, for a datagram countEntries rejects.
func (b *UDPBus) route(from int, dg []byte) bool {
	body := dg[udpHeader:]
	if countEntries(body) == 0 {
		return false
	}
	for id, p := range b.peers {
		if id != from {
			p.out = append(p.out[:0], dg[:udpHeader]...)
		}
	}
	for rest := body; len(rest) > 0; {
		var frame []byte
		frame, rest = nextEntry(rest)
		b.bits.Add(int64(len(frame)) * 8)
		round, seq := coinKey(frame)
		for id, p := range b.peers {
			if id != from && radio.Delivered(b.seed, round, seq, id, b.erasure) {
				p.out = appendEntry(p.out, frame)
			}
		}
	}
	return true
}

// acceptCtrl takes a control datagram into the ARQ: it acks the sender
// (reply is the header buffer to ack in), keeps the datagram until every
// other registered endpoint has acked it, and forwards it to them, using
// fwd for their addresses. It returns fwd, for reuse.
func (b *UDPBus) acceptCtrl(from int, seq uint32, dg, reply []byte, fwd []netip.AddrPort) []netip.AddrPort {
	body := dg[udpHeader:]
	frames := countEntries(body)
	if frames == 0 {
		return fwd
	}
	key := pendingKey{from: from, seq: seq}
	b.mu.Lock()
	sender := b.peers[from]
	w := b.seen[from]
	if w == nil {
		w = &seqWindow{}
		b.seen[from] = w
	}
	if w.observe(seq) {
		b.mu.Unlock()
		if sender != nil {
			b.write(putHeader(reply, kindCtrlAck, from, seq), sender.addr) // duplicate: re-ack
		}
		return fwd
	}
	b.bits.Add(int64(len(body)-udpEntry*frames) * 8)
	p := &pendingCtrl{datagram: bytes.Clone(dg), waiting: map[int]bool{}}
	for id, peer := range b.peers {
		if id == from {
			continue
		}
		p.waiting[id] = true
		fwd = append(fwd, peer.addr)
	}
	if len(p.waiting) > 0 {
		b.pending[key] = p
	}
	b.mu.Unlock()
	if sender != nil {
		b.write(putHeader(reply, kindCtrlAck, from, seq), sender.addr)
	}
	for _, addr := range fwd {
		b.write(p.datagram, addr)
	}
	return fwd
}

func (b *UDPBus) retransmitLoop() {
	defer b.wg.Done()
	tick := time.NewTicker(retransmitEvery)
	defer tick.Stop()
	type rtx struct {
		addr     netip.AddrPort
		datagram []byte
	}
	var out []rtx
	for range tick.C {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		out = out[:0]
		for key, p := range b.pending {
			p.tries++
			if p.tries > maxRetries {
				delete(b.pending, key) // receiver is gone; give up
				continue
			}
			for id := range p.waiting {
				if peer, ok := b.peers[id]; ok {
					out = append(out, rtx{addr: peer.addr, datagram: p.datagram})
				}
			}
		}
		b.mu.Unlock()
		for _, r := range out {
			b.write(r.datagram, r.addr)
		}
	}
}

// Endpoint implements Bus: it dials the hub, performs the hello handshake
// and starts the client reader.
func (b *UDPBus) Endpoint(id int) (Endpoint, error) {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	conn, err := net.DialUDP("udp4", nil, b.Addr())
	if err != nil {
		return nil, fmt.Errorf("transport: dial hub: %w", err)
	}
	ep := &udpEndpoint{
		id:    id,
		bus:   b,
		conn:  conn,
		ch:    make(chan Env, b.inbox),
		acked: make(map[uint32]chan struct{}),
		seen:  make(map[int]*seqWindow),
	}
	ep.helloDone = make(chan struct{})
	ep.stop = make(chan struct{})
	go ep.readLoop()
	// Hello with retries until acknowledged.
	hello := putHeader(make([]byte, udpHeader), kindHello, id, 0)
	for i := 0; i < maxRetries; i++ {
		ep.write(hello)
		select {
		case <-ep.helloDone:
			b.mu.Lock()
			if b.closed {
				b.mu.Unlock()
				ep.Close()
				return nil, ErrClosed
			}
			b.eps = append(b.eps, ep)
			b.mu.Unlock()
			return ep, nil
		case <-time.After(retransmitEvery):
		}
	}
	conn.Close()
	return nil, fmt.Errorf("transport: node %d hello timed out", id)
}

type udpEndpoint struct {
	id   int
	bus  *UDPBus // its shed and datagram counters
	conn *net.UDPConn
	ch   chan Env
	seq  atomic.Uint32

	mu        sync.Mutex
	acked     map[uint32]chan struct{}
	seen      map[int]*seqWindow // per-sender ctrl dedup, constant memory
	spare     [][]byte           // datagram buffers of finished sends
	helloOnce sync.Once
	helloDone chan struct{}
	stop      chan struct{} // closed by Close: releases a send waiting on the hub
	closed    bool
}

func (e *udpEndpoint) ID() int { return e.id }

// write sends one datagram to the hub.
func (e *udpEndpoint) write(dg []byte) {
	e.bus.sent[dg[0]].Add(1)
	_, _ = e.conn.Write(dg)
}

func (e *udpEndpoint) SendData(frame []byte, more ...[]byte) error {
	return e.send(kindData, frame, more)
}

// SendCtrl submits the frames to the hub, one ARQ unit per datagram, and
// blocks until the hub has accepted each (the client->hub hop is itself
// retransmitted), after which the hub's ARQ guarantees delivery to every
// registered endpoint. On a closed endpoint, or one closed while it
// waits, it returns ErrClosed at once, as ChanBus does: a member still
// draining its inbox when its block's bus closes must not hold the
// block's teardown for the whole retry budget.
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
		dg, i = packEntries(dg[:udpHeader], frame, more, i)
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

// flush sends one packed datagram: a data datagram once, a control
// datagram under a fresh sequence number until the hub accepts it.
func (e *udpEndpoint) flush(kind byte, dg []byte) error {
	if kind == kindData {
		putHeader(dg, kind, e.id, 0)
		e.write(dg)
		return nil
	}
	seq := e.seq.Add(1)
	putHeader(dg, kind, e.id, seq)
	done := make(chan struct{})
	e.mu.Lock()
	e.acked[seq] = done
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.acked, seq)
		e.mu.Unlock()
	}()
	for i := 0; i < maxRetries; i++ {
		e.write(dg)
		select {
		case <-done:
			return nil
		case <-e.stop:
			return ErrClosed
		case <-time.After(retransmitEvery):
		}
	}
	return fmt.Errorf("transport: ctrl seq %d not accepted by hub", seq)
}

func (e *udpEndpoint) Recv() <-chan Env { return e.ch }

// Close shuts the client socket down; the read loop observes the error
// and closes the Recv channel (exactly once), so receivers always see a
// channel close regardless of who initiated the teardown.
func (e *udpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.stop)
	e.mu.Unlock()
	return e.conn.Close()
}

func (e *udpEndpoint) readLoop() {
	defer close(e.ch)
	buf := make([]byte, 1<<16)
	ack := make([]byte, udpHeader+2)
	for {
		n, err := e.conn.Read(buf)
		if err != nil {
			// Closed, or the hub is gone (a connected UDP socket reads
			// ECONNREFUSED once the hub's port stops answering). Either
			// way the endpoint is done: release its socket, or a later
			// Close would find it marked closed and leak the descriptor.
			e.Close()
			return
		}
		if n < udpHeader {
			continue
		}
		kind := buf[0]
		from := int(binary.BigEndian.Uint16(buf[1:3]))
		seq := binary.BigEndian.Uint32(buf[3:7])
		body := buf[udpHeader:n]
		switch kind {
		case kindHelloAck:
			e.helloOnce.Do(func() { close(e.helloDone) })
		case kindCtrlAck:
			e.mu.Lock()
			if ch, ok := e.acked[seq]; ok {
				close(ch)
				delete(e.acked, seq)
			}
			e.mu.Unlock()
		case kindData:
			if countEntries(body) > 0 {
				e.deliver(from, false, bytes.Clone(body))
			}
		case kindCtrl:
			if countEntries(body) == 0 {
				continue // malformed: dropped whole, unacked
			}
			// Ack to the hub, dedup, deliver once.
			putHeader(ack, kindAck, e.id, seq)
			binary.BigEndian.PutUint16(ack[udpHeader:], uint16(from))
			e.write(ack[:udpHeader+2])
			e.mu.Lock()
			w := e.seen[from]
			if w == nil {
				w = &seqWindow{}
				e.seen[from] = w
			}
			dup := w.observe(seq)
			e.mu.Unlock()
			if !dup {
				e.deliver(from, true, bytes.Clone(body))
			}
		}
	}
}

// deliver hands each frame of a datagram's entries, a copy the endpoint
// made once, to the inbox in order, without blocking the socket reader:
// a full inbox sheds the frame.
func (e *udpEndpoint) deliver(from int, reliable bool, body []byte) {
	for len(body) > 0 {
		var frame []byte
		frame, body = nextEntry(body)
		select {
		case e.ch <- Env{From: from, Reliable: reliable, Frame: frame}:
		default:
			e.bus.shed.Add(1)
		}
	}
}
