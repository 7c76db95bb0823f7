package keystream

import (
	"bytes"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// arena holds one derivation worker's reusable block-derivation buffers.
// A worker derives one block at a time, so the same buffers serve block
// after block: the block's set-up (its context, endpoints and secret
// spans), the leader's round planner and reception sets, its report
// bookkeeping and timer, its round scratch, its x-payload generator and
// x rows, the leader's outgoing frames, and each member terminal's round
// scratches, decoded control messages and reception reports. Every
// buffer's size follows from the Config, so the arena stops growing
// after the first blocks. A block with no bus uses only the planner, the
// reception sets, the generator, one slab of x rows the generator fills
// and the leader's round scratch, and once warm allocates nothing
// (TestSteadyStateBlockAlloc); a block over a bus allocates only its
// context, its member goroutines and its bus
// (TestProtocolBlockAllocBudget).
type arena struct {
	bc     BlockContext // the worker's block context, over this arena
	policy core.Config  // validated once; its Pooling and Estimator plan every round
	eps    []transport.Endpoint
	auth   blockAuth
	termWG sync.WaitGroup // the block's members

	// The leader's planning: round r's reception sets, read from the
	// schedule, and the planner each round is planned into. The leader
	// plans a block's rounds one at a time on one goroutine, so one of
	// each serves them all.
	recv     []*packet.IDSet
	planner  core.Planner
	waitFor  []bool      // collectReports: members this round waits for
	acked    []bool      // collectReports: members that reported
	ackTimer *time.Timer // collectReports' deadline, reset every round
	leader   core.RoundScratch

	xn, xb  int     // x-packets per round, bytes per x-payload
	erasure float64 // the schedule's erasure probability

	// A round's x-payloads, as the rows the leader's round combines: over
	// xslab, which the generator fills, in a block with no bus, and over
	// the payloads inside the round's x frames in a block over one.
	x     [][]byte
	xslab []byte // allocated by the first block with no bus
	xgen  packet.XGen

	// The leader's frames: its x frames, one round's carved back to back,
	// and its beacons and announces. Both slabs rewind at block teardown.
	xframes, cframes frameSlab
	// The leader's burst, sent in one call: a round's x frames, or its
	// end-of-X beacon, y-announce, z-packets and s-announce (or abort
	// beacon). It is sized for a round's most frames.
	burst [][]byte

	// The messages the leader's control frames are marshalled from as
	// soon as they are filled: a beacon, the announces and a z-packet.
	// x frames are built around the payloads the generator writes
	// (wire.AppendXFill).
	beacon wire.Beacon
	ya     wire.YAnnounce
	sa     wire.SAnnounce
	zp     wire.ZPacket

	terms []termArena // indexed by terminal
}

// termArena is one member terminal's share of the arena. Only that
// terminal's goroutine touches it while a block runs.
type termArena struct {
	// ping-pong: round r+1's receive half must not clobber round r's
	// pending elimination.
	scratch [2]core.RoundScratch
	owner   [2]*termRound      // the round whose receive half each scratch holds
	free    []*termRound       // recycled round states
	secret  []byte             // the last completed round's secret, for verification
	rounds  map[int]*termRound // the rounds in flight, emptied when the member stops

	// The member's reception reports: the set it reports, the message,
	// and the slab its frames are carved from (rewound at block teardown,
	// like the leader's).
	mine   packet.IDSet
	ack    wire.AckReport
	frames frameSlab

	// Frames decode in place: x frames into x, beacons into beacon, and
	// control frames into ya, z and sa, each taken from its free list when
	// nil. A control message that decoded whole moves to its round's
	// state, which returns it to the free list when the round is done.
	x      wire.XPacket
	beacon wire.Beacon
	ya     *wire.YAnnounce
	z      *wire.ZPacket
	sa     *wire.SAnnounce
	yfree  []*wire.YAnnounce
	zfree  []*wire.ZPacket
	sfree  []*wire.SAnnounce
}

func newArena(cfg *Config) *arena {
	// The x-frame slab grows by one round's x frames, its exact per-round
	// need. The control frames vary with each round's plan, so their slab
	// grows by the widest: a z frame with M ≤ XPerRound coefficients, or a
	// y-announce whose one class spans every x-packet with M rows over
	// them (an s-announce has at most as many rows of the same length).
	row := make([]uint16, cfg.XPerRound)
	z := &wire.ZPacket{Header: wire.Header{Type: wire.TypeZ}, Coeffs: row, Payload: make([]byte, cfg.PayloadBytes)}
	rows := make([][]uint16, cfg.XPerRound)
	for i := range rows {
		rows[i] = row
	}
	y := &wire.YAnnounce{Header: wire.Header{Type: wire.TypeYAnnounce}, Classes: []wire.ClassBatch{{XIDs: make([]uint32, cfg.XPerRound), Coeffs: rows}}}
	a := &arena{
		policy:  core.Config{Terminals: cfg.Terminals, XPerRound: cfg.XPerRound, PayloadBytes: cfg.PayloadBytes},
		eps:     make([]transport.Endpoint, cfg.Terminals),
		recv:    make([]*packet.IDSet, cfg.Terminals),
		waitFor: make([]bool, cfg.Terminals),
		acked:   make([]bool, cfg.Terminals),
		xn:      cfg.XPerRound, xb: cfg.PayloadBytes,
		erasure: cfg.Erasure,
		x:       make([][]byte, cfg.XPerRound),
		burst:   make([][]byte, cfg.XPerRound+3),
		xframes: frameSlab{chunk: cfg.XPerRound * wire.XFrameLen(cfg.PayloadBytes)},
		cframes: frameSlab{chunk: max(wire.FrameLen(z), wire.FrameLen(y))},
		terms:   make([]termArena, cfg.Terminals),
	}
	// Config.fill has validated the same core configuration for the
	// protocol deriver, so this only fills the protocol's defaults.
	if cfg.Source == nil {
		if err := a.policy.Validate(); err != nil {
			panic(err)
		}
	}
	for t := range a.recv {
		a.recv[t] = new(packet.IDSet)
	}
	// A member's slab grows by a few rounds' reports at a time.
	ack := &wire.AckReport{Header: wire.Header{Type: wire.TypeAck}, Bitmap: make([]uint64, (cfg.XPerRound+63)/64)}
	for t := range a.terms {
		a.terms[t].rounds = make(map[int]*termRound)
		a.terms[t].frames.chunk = (pipelineDepth + 1) * wire.FrameLen(ack)
	}
	return a
}

// blockAuth is where each round's authoritative secret sits in the block
// being derived, indexed by round. The leader records a round's span
// before announcing the round, so a member that completes it finds
// the span, and verify checks the member's secret against it.
type blockAuth struct {
	mu    sync.Mutex
	spans []secretSpan // full == 0: no authoritative secret for the round
	dst   []byte
	es    *engineStats
}

// reset starts a block whose secret goes into dst.
func (b *blockAuth) reset(dst []byte, es *engineStats) {
	b.mu.Lock()
	b.spans, b.dst, b.es = b.spans[:0], dst, es
	b.mu.Unlock()
}

// set records round r's span.
func (b *blockAuth) set(r int, sp secretSpan) {
	b.mu.Lock()
	if r >= len(b.spans) {
		b.spans = append(b.spans, make([]secretSpan, r+1-len(b.spans))...)
	}
	b.spans[r] = sp
	b.mu.Unlock()
}

// verify counts a member's secret for round r (nil when it could not
// complete the round) as agreeing with the block or not.
func (b *blockAuth) verify(r int, secret []byte) {
	b.mu.Lock()
	good := false
	if r < len(b.spans) {
		sp := b.spans[r]
		good = sp.full > 0 && len(secret) == sp.full && bytes.Equal(secret[:sp.n], b.dst[sp.off:sp.off+sp.n])
	}
	b.mu.Unlock()
	if good {
		b.es.verifyOK.Add(1)
	} else {
		b.es.verifyMismatch.Add(1)
	}
}

// xRows points the x rows at the arena's own slab, allocating it on
// first use, and returns them: a block with no bus fills them from the
// generator.
func (a *arena) xRows() [][]byte {
	if a.xslab == nil {
		a.xslab = make([]byte, a.xn*a.xb)
	}
	for i := range a.x {
		a.x[i] = a.xslab[i*a.xb : (i+1)*a.xb : (i+1)*a.xb]
	}
	return a.x
}

// frameRows points the x rows at the payloads of a round's x frames,
// which sendX carved back to back into span, and returns them.
func (a *arena) frameRows(span []byte) [][]byte {
	fl := wire.XFrameLen(a.xb)
	for i := range a.x {
		a.x[i] = wire.XPayload(span[i*fl : (i+1)*fl])
	}
	return a.x
}

// rewindFrames zeroes the block's frames and makes the slabs reusable.
// The block's teardown calls it once the bus is closed and every goroutine
// that could read a frame has returned.
func (a *arena) rewindFrames() {
	a.xframes.rewind()
	a.cframes.rewind()
	for i := range a.terms {
		a.terms[i].frames.rewind()
	}
}

// zero clears every buffer the arena holds, the generator's key, seed
// words and buffered output included: the last round's key would
// regenerate that round's x-payloads, and so its secret. The worker
// calls it on exit; by then every member has stopped.
func (a *arena) zero() {
	a.leader.Zero()
	a.xgen.Zero()
	a.rewindFrames()
	clear(a.xslab)
	clear(a.x)
	a.zp = wire.ZPacket{}
	for i := range a.terms {
		ta := &a.terms[i]
		ta.scratch[0].Zero()
		ta.scratch[1].Zero()
		clear(ta.secret)
		ta.x, ta.z = wire.XPacket{}, nil
	}
}

// frameSlab carves one goroutine's outgoing frames out of reused chunks.
// A frame stays unchanged until rewind: a bus hands receivers the frame
// itself, which may sit unread in an inbox until the bus is closed.
type frameSlab struct {
	chunk  int      // bytes per chunk, from the Config
	chunks [][]byte // chunks[:cur+1] hold this block's frames, by length
	cur    int      // the chunk being filled; the chunks after it are empty
}

// marshal encodes m into the slab and returns its frame, capped at its
// length.
func (s *frameSlab) marshal(m wire.Message) []byte {
	return wire.AppendMarshal(s.carve(wire.FrameLen(m)), m)
}

// carve returns the next n contiguous bytes of the slab, as an empty
// slice with capacity n. The slab starts a chunk when the current one is
// full, and allocates one only when it has none left or the empty one it
// reached is too small; so once a block as long as the longest so far
// has run, it stops allocating.
func (s *frameSlab) carve(n int) []byte {
	if s.cur < len(s.chunks) && len(s.chunks[s.cur]) > 0 && cap(s.chunks[s.cur])-len(s.chunks[s.cur]) < n {
		s.cur++
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	if cap(s.chunks[s.cur]) < n {
		s.chunks[s.cur] = make([]byte, 0, max(s.chunk, n))
	}
	c := s.chunks[s.cur]
	s.chunks[s.cur] = c[:len(c)+n]
	return c[len(c) : len(c) : len(c)+n]
}

// rewind zeroes every frame the slab handed out and starts it over. The
// zeroing is a loop, not clear: the compiler turns both into a memclr,
// but only the loop is visible to the race detector, which then reports
// any goroutine still reading a frame of the block.
func (s *frameSlab) rewind() {
	for i, c := range s.chunks {
		for j := range c {
			c[j] = 0
		}
		s.chunks[i] = c[:0]
	}
	s.cur = 0
}

// decode decodes one delivered frame in place into ta's message of its
// type, which the next frame of that type overwrites unless the caller
// has moved it to a round state and cleared ta's field. Reception
// reports decode to nil: members ignore them.
func (ta *termArena) decode(frame []byte) (wire.Message, error) {
	switch wire.PeekType(frame) {
	case wire.TypeX:
		return &ta.x, wire.UnmarshalX(frame, &ta.x)
	case wire.TypeBeacon:
		return &ta.beacon, wire.UnmarshalBeacon(frame, &ta.beacon)
	case wire.TypeYAnnounce:
		ta.ya = reuse(ta.ya, &ta.yfree)
		return ta.ya, wire.UnmarshalY(frame, ta.ya)
	case wire.TypeZ:
		ta.z = reuse(ta.z, &ta.zfree)
		return ta.z, wire.UnmarshalZ(frame, ta.z)
	case wire.TypeSAnnounce:
		ta.sa = reuse(ta.sa, &ta.sfree)
		return ta.sa, wire.UnmarshalS(frame, ta.sa)
	case wire.TypeAck:
		return nil, nil
	}
	return wire.Unmarshal(frame)
}

// reuse returns m, or else a message from the free list, or else a new
// one.
func reuse[T any](m *T, free *[]*T) *T {
	if m != nil {
		return m
	}
	if n := len(*free); n > 0 {
		m = (*free)[n-1]
		*free = (*free)[:n-1]
		return m
	}
	return new(T)
}

// round returns a cleared round state.
func (ta *termArena) round() *termRound {
	if n := len(ta.free); n > 0 {
		st := ta.free[n-1]
		ta.free = ta.free[:n-1]
		return st
	}
	return &termRound{recvX: make(map[packet.ID][]byte)}
}

// secretBytes flattens a round's secret rows into ta's reused buffer.
func (ta *termArena) secretBytes(rows [][]byte) []byte {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	ta.secret = slices.Grow(ta.secret[:0], n)[:n]
	core.PutSecretBytes(ta.secret, rows)
	return ta.secret
}

// put recycles a finished, aborted or abandoned round state and its
// control messages. The x- and z-packets' payloads, views of the block's
// frames, are dropped.
func (ta *termArena) put(st *termRound) {
	clear(st.recvX)
	if st.ya != nil {
		ta.yfree = append(ta.yfree, st.ya)
	}
	if st.sa != nil {
		ta.sfree = append(ta.sfree, st.sa)
	}
	for _, z := range st.zs {
		z.Payload = nil
		ta.zfree = append(ta.zfree, z)
	}
	clear(st.zs)
	*st = termRound{recvX: st.recvX, zs: st.zs[:0]}
	ta.free = append(ta.free, st)
}

// termRound is a terminal's in-flight state for one round. Its control
// messages are ones that decoded without error.
type termRound struct {
	recvX map[packet.ID][]byte // received x-payloads, views of the block's frames
	ya    *wire.YAnnounce
	zs    []*wire.ZPacket
	sa    *wire.SAnnounce
	pr    core.PartialRound
	recvd bool // ReceiveRoundInto has run
}
