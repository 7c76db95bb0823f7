package transport

import (
	"encoding/binary"
	"fmt"
	"net"
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
// Datagram layout (hub <-> client), big endian:
//
//	byte 0     kind (hello, helloAck, data, ctrl, ctrlAck, ack)
//	bytes 1-2  node id
//	bytes 3-6  sequence number
//	bytes 7+   frame payload
type UDPBus struct {
	erasure float64
	seed    int64

	conn *net.UDPConn

	mu sync.Mutex
	// addrs is written only by readLoop, under mu; readLoop itself reads
	// it without the lock.
	addrs   map[int]*net.UDPAddr
	pending map[pendingKey]*pendingCtrl
	seen    map[int]*seqWindow // per-sender ctrl dedup, constant memory
	eps     []*udpEndpoint     // every endpoint this bus handed out
	closed  bool

	bits atomic.Int64
	shed atomic.Int64
	wg   sync.WaitGroup
}

type pendingKey struct {
	from int
	seq  uint32
}

type pendingCtrl struct {
	frame   []byte
	waiting map[int]bool // receivers that have not acked yet
	tries   int
}

const (
	kindHello    = 1
	kindHelloAck = 2
	kindData     = 3
	kindCtrl     = 4
	kindCtrlAck  = 5 // hub -> sender: ctrl accepted
	kindAck      = 6 // receiver -> hub: ctrl delivered
	udpHeader    = 7
)

// Tunables for the ARQ. Aggressive values are fine on loopback.
const (
	retransmitEvery = 10 * time.Millisecond
	maxRetries      = 200
)

// NewUDPBus starts a hub on a loopback UDP port. The hub erases each data
// frame at each receiver with probability erasure, keyed by seed.
func NewUDPBus(erasure float64, seed int64) (*UDPBus, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("transport: hub listen: %w", err)
	}
	b := &UDPBus{
		erasure: erasure,
		seed:    seed,
		conn:    conn,
		addrs:   make(map[int]*net.UDPAddr),
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

func (b *UDPBus) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, addr, err := b.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if n < udpHeader {
			continue
		}
		kind := buf[0]
		from := int(binary.BigEndian.Uint16(buf[1:3]))
		seq := binary.BigEndian.Uint32(buf[3:7])
		payload := buf[udpHeader:n]
		switch kind {
		case kindHello:
			b.mu.Lock()
			b.addrs[from] = addr
			b.mu.Unlock()
			b.send(addr, kindHelloAck, from, 0, nil)
		case kindData:
			b.fanoutData(from, buf[:n])
		case kindCtrl:
			b.acceptCtrl(from, seq, payload)
		case kindAck:
			if len(payload) < 2 {
				continue
			}
			b.mu.Lock()
			key := pendingKey{from: int(binary.BigEndian.Uint16(payload[0:2])), seq: seq}
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

// fanoutData forwards a data datagram, as received, to every receiver the
// erasure coin delivers it to.
func (b *UDPBus) fanoutData(from int, datagram []byte) {
	frame := datagram[udpHeader:]
	b.bits.Add(int64(len(frame)) * 8)
	round, seq := coinKey(frame)
	for id, addr := range b.addrs {
		if id != from && radio.Delivered(b.seed, round, seq, id, b.erasure) {
			_, _ = b.conn.WriteToUDP(datagram, addr) // best effort, like the air
		}
	}
}

func (b *UDPBus) acceptCtrl(from int, seq uint32, frame []byte) {
	key := pendingKey{from: from, seq: seq}
	b.mu.Lock()
	senderAddr := b.addrs[from]
	w := b.seen[from]
	if w == nil {
		w = &seqWindow{}
		b.seen[from] = w
	}
	if w.observe(seq) {
		b.mu.Unlock()
		if senderAddr != nil {
			b.send(senderAddr, kindCtrlAck, from, seq, nil) // duplicate: re-ack
		}
		return
	}
	b.bits.Add(int64(len(frame)) * 8)
	p := &pendingCtrl{frame: append([]byte(nil), frame...), waiting: map[int]bool{}}
	var deliver []*net.UDPAddr
	for id, addr := range b.addrs {
		if id == from {
			continue
		}
		p.waiting[id] = true
		deliver = append(deliver, addr)
	}
	if len(p.waiting) > 0 {
		b.pending[key] = p
	}
	b.mu.Unlock()
	if senderAddr != nil {
		b.send(senderAddr, kindCtrlAck, from, seq, nil)
	}
	for _, addr := range deliver {
		b.send(addr, kindCtrl, from, seq, frame)
	}
}

func (b *UDPBus) retransmitLoop() {
	defer b.wg.Done()
	tick := time.NewTicker(retransmitEvery)
	defer tick.Stop()
	for range tick.C {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		type rtx struct {
			addr  *net.UDPAddr
			from  int
			seq   uint32
			frame []byte
		}
		var out []rtx
		for key, p := range b.pending {
			p.tries++
			if p.tries > maxRetries {
				delete(b.pending, key) // receiver is gone; give up
				continue
			}
			for id := range p.waiting {
				if addr, ok := b.addrs[id]; ok {
					out = append(out, rtx{addr: addr, from: key.from, seq: key.seq, frame: p.frame})
				}
			}
		}
		b.mu.Unlock()
		for _, r := range out {
			b.send(r.addr, kindCtrl, r.from, r.seq, r.frame)
		}
	}
}

func (b *UDPBus) send(addr *net.UDPAddr, kind byte, from int, seq uint32, payload []byte) {
	msg := make([]byte, udpHeader+len(payload))
	msg[0] = kind
	binary.BigEndian.PutUint16(msg[1:3], uint16(from))
	binary.BigEndian.PutUint32(msg[3:7], seq)
	copy(msg[udpHeader:], payload)
	_, _ = b.conn.WriteToUDP(msg, addr) // best effort; ARQ covers ctrl
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
		conn:  conn,
		ch:    make(chan Env, inboxFrames),
		shed:  &b.shed,
		acked: make(map[uint32]chan struct{}),
		seen:  make(map[int]*seqWindow),
	}
	ep.helloDone = make(chan struct{})
	go ep.readLoop()
	// Hello with retries until acknowledged.
	for i := 0; i < maxRetries; i++ {
		ep.write(kindHello, 0, nil)
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
	conn *net.UDPConn
	ch   chan Env
	seq  atomic.Uint32
	shed *atomic.Int64 // the bus's shed counter

	mu        sync.Mutex
	acked     map[uint32]chan struct{}
	seen      map[int]*seqWindow // per-sender ctrl dedup, constant memory
	helloOnce sync.Once
	helloDone chan struct{}
	closed    bool
}

func (e *udpEndpoint) ID() int { return e.id }

func (e *udpEndpoint) write(kind byte, seq uint32, payload []byte) {
	msg := make([]byte, udpHeader+len(payload))
	msg[0] = kind
	binary.BigEndian.PutUint16(msg[1:3], uint16(e.id))
	binary.BigEndian.PutUint32(msg[3:7], seq)
	copy(msg[udpHeader:], payload)
	_, _ = e.conn.Write(msg)
}

func (e *udpEndpoint) SendData(frame []byte) error {
	e.write(kindData, 0, frame)
	return nil
}

// SendCtrl submits the frame to the hub and blocks until the hub has
// accepted it (client->hub hop is itself retransmitted), after which the
// hub's ARQ guarantees delivery to every registered endpoint.
func (e *udpEndpoint) SendCtrl(frame []byte) error {
	seq := e.seq.Add(1)
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
		e.write(kindCtrl, seq, frame)
		select {
		case <-done:
			return nil
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
	e.mu.Unlock()
	return e.conn.Close()
}

func (e *udpEndpoint) readLoop() {
	defer close(e.ch)
	buf := make([]byte, 65536)
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
		payload := append([]byte(nil), buf[udpHeader:n]...)
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
			e.deliver(Env{From: from, Reliable: false, Frame: payload})
		case kindCtrl:
			// Ack to the hub, dedup, deliver once.
			ackPayload := make([]byte, 2)
			binary.BigEndian.PutUint16(ackPayload, uint16(from))
			e.write(kindAck, seq, ackPayload)
			e.mu.Lock()
			w := e.seen[from]
			if w == nil {
				w = &seqWindow{}
				e.seen[from] = w
			}
			dup := w.observe(seq)
			e.mu.Unlock()
			if !dup {
				e.deliver(Env{From: from, Reliable: true, Frame: payload})
			}
		}
	}
}

// deliver hands env to the endpoint's inbox without blocking the socket
// reader: a full inbox sheds the frame.
func (e *udpEndpoint) deliver(env Env) {
	select {
	case e.ch <- env:
	default:
		e.shed.Add(1)
	}
}
