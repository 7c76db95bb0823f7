package keystream

import (
	"bytes"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/packet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// arena holds one derivation worker's reusable block-derivation buffers.
// A worker derives one block at a time, so the same buffers serve block
// after block: the block's set-up (its context, endpoints and secret
// spans), the leader's round planners and reception sets, its report
// bookkeeping and timer, its round scratch, the x-symbol slabs its
// exchange decodes payloads into, the leader's outgoing frames, its
// x-payload generator and payload buffers, and each member terminal's
// round scratches, x-decode rows, decoded control messages and reception
// reports. Every buffer's size follows from the Config, so the arena
// stops growing after the first blocks. A block with no bus uses only
// one planner, the reception sets, one x-symbol slab, the generator and
// payload buffer and the leader's round scratch, and once warm allocates
// nothing (TestSteadyStateBlockAlloc); a block over a bus allocates only
// its context, its goroutines, its exchange channel and its bus
// (TestProtocolBlockAllocBudget).
type arena struct {
	bc     BlockContext // the worker's block context, over this arena
	policy core.Config  // validated once; its Pooling and Estimator plan every round
	eps    []transport.Endpoint
	auth   blockAuth
	// The block's members and its exchange goroutine.
	termWG, exchWG sync.WaitGroup

	// The exchange's planning: round r's reception sets, read from the
	// schedule, and the planners not in use. A plan is live from its
	// round's exchange until the compute loop has marshalled the round's
	// s-announce (or abort beacon), so at most pipelineDepth+1 planners
	// are ever out: one in the exchange, pipelineDepth-1 in exchCh, one in
	// the compute loop.
	recv     []*packet.IDSet
	planFree []*core.Planner // guarded by mu
	waitFor  []bool          // collectReports: members this round waits for
	acked    []bool          // collectReports: members that reported
	ackTimer *time.Timer     // collectReports' deadline, reset every round
	leader   core.RoundScratch

	xn, xw  int            // x-packets per round, symbols per x-payload
	erasure float64        // the schedule's erasure probability
	mu      sync.Mutex     // the exchange takes x slabs and planners, compute returns them
	xfree   [][][]core.Sym // x-symbol slabs not in use, as per-packet row views; guarded by mu

	// The leader's frames: the exchange goroutine's x frames and end-of-X
	// beacons, and the compute loop's abort beacons and announces. Each
	// slab has one writer; both rewind at block teardown.
	xframes, cframes frameSlab
	xpay             []byte      // the exchange's x-payload buffer
	xgen             packet.XGen // the exchange's x-payload generator, rekeyed each round

	// The messages the leader's frames are marshalled from as soon as
	// they are filled: the exchange's x-packet and end-of-X beacon, and
	// the compute loop's abort beacon, announces and z-packet.
	xp      wire.XPacket
	xbeacon wire.Beacon
	beacon  wire.Beacon
	ya      wire.YAnnounce
	sa      wire.SAnnounce
	zp      wire.ZPacket
	zpay    []byte // the z-packet's payload buffer

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
	rows    [][]core.Sym       // x-decode rows not in use, one x-payload each
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
	// The exchange's slab grows by one round's x frames and end-of-X
	// beacon, its exact per-round need. The compute loop's frames vary
	// with each round's plan, so its slab grows by its widest frame: a
	// z frame with M ≤ XPerRound coefficients, or a y-announce whose one
	// class spans every x-packet with M rows over them (an s-announce has
	// at most as many rows of the same length).
	x := &wire.XPacket{Header: wire.Header{Type: wire.TypeX}, Payload: make([]byte, cfg.PayloadBytes)}
	beacon := &wire.Beacon{Header: wire.Header{Type: wire.TypeBeacon}}
	row := make([]uint16, cfg.XPerRound)
	z := &wire.ZPacket{Header: wire.Header{Type: wire.TypeZ}, Coeffs: row, Payload: x.Payload}
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
		xn:      cfg.XPerRound, xw: cfg.PayloadBytes / 2,
		erasure: cfg.Erasure,
		xframes: frameSlab{chunk: cfg.XPerRound*wire.FrameLen(x) + wire.FrameLen(beacon)},
		cframes: frameSlab{chunk: max(wire.FrameLen(z), wire.FrameLen(y))},
		xpay:    x.Payload,
		zpay:    make([]byte, cfg.PayloadBytes),
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

// planner returns a planner not in use.
func (a *arena) planner() *core.Planner {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.planFree); n > 0 {
		pl := a.planFree[n-1]
		a.planFree = a.planFree[:n-1]
		return pl
	}
	return new(core.Planner)
}

// putPlanner returns a planner whose plan is no longer used.
func (a *arena) putPlanner(pl *core.Planner) {
	a.mu.Lock()
	a.planFree = append(a.planFree, pl)
	a.mu.Unlock()
}

// blockAuth is where each round's authoritative secret sits in the block
// being derived, indexed by round. The compute loop records a round's
// span before announcing the round, so a member that completes it finds
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

// xSlab returns one x-symbol row per x-packet, all over one slab.
func (a *arena) xSlab() [][]core.Sym {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.xfree); n > 0 {
		x := a.xfree[n-1]
		a.xfree = a.xfree[:n-1]
		return x
	}
	slab := make([]core.Sym, a.xn*a.xw)
	x := make([][]core.Sym, a.xn)
	for i := range x {
		x[i] = slab[i*a.xw : (i+1)*a.xw : (i+1)*a.xw]
	}
	return x
}

// putXSlab returns a slab xSlab handed out; nil is ignored.
func (a *arena) putXSlab(x [][]core.Sym) {
	if x == nil {
		return
	}
	a.mu.Lock()
	a.xfree = append(a.xfree, x)
	a.mu.Unlock()
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

// zero clears every buffer the arena holds and rekeys its generator with
// the zero key: the last round's key would regenerate that round's
// x-payloads, and so its secret. The worker calls it on exit; by then
// every slab and decode row has been returned.
func (a *arena) zero() {
	a.leader.Zero()
	a.xgen.Zero()
	a.rewindFrames()
	clear(a.xpay)
	clear(a.zpay)
	a.xp, a.zp = wire.XPacket{}, wire.ZPacket{}
	for _, x := range a.xfree {
		for _, row := range x {
			clear(row)
		}
	}
	for i := range a.terms {
		ta := &a.terms[i]
		ta.scratch[0].Zero()
		ta.scratch[1].Zero()
		clear(ta.secret)
		ta.x, ta.z = wire.XPacket{}, nil
		for _, row := range ta.rows {
			clear(row)
		}
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
// length. The slab starts a chunk when the current one is full, and
// allocates one only when it has none left or the empty one it reached is
// too small for the frame; so once a block as long as the longest so far
// has run, it stops allocating.
func (s *frameSlab) marshal(m wire.Message) []byte {
	n := wire.FrameLen(m)
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
	return wire.AppendMarshal(c[len(c):len(c):len(c)+n], m)
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
	return &termRound{recvX: make(map[packet.ID][]core.Sym)}
}

// putX decodes x-packet seq's payload into one of ta's decode rows and
// files it under the round. Every payload has the stream's PayloadBytes,
// so every row fits every payload.
func (ta *termArena) putX(st *termRound, seq packet.ID, payload []byte) {
	row, ok := st.recvX[seq]
	if !ok {
		if n := len(ta.rows); n > 0 {
			row = ta.rows[n-1]
			ta.rows = ta.rows[:n-1]
		} else {
			row = make([]core.Sym, len(payload)/2)
		}
	}
	gf.PutSymbols16(row, payload)
	st.recvX[seq] = row
}

// secretBytes flattens a round's secret rows into ta's reused buffer.
func (ta *termArena) secretBytes(rows [][]core.Sym) []byte {
	n := 0
	for _, row := range rows {
		n += 2 * len(row)
	}
	ta.secret = slices.Grow(ta.secret[:0], n)[:n]
	core.PutSecretBytes(ta.secret, rows)
	return ta.secret
}

// put recycles a finished, aborted or abandoned round state, its decode
// rows and its control messages. The z-packets' payloads, views of the
// block's frames, are dropped.
func (ta *termArena) put(st *termRound) {
	for _, row := range st.recvX {
		ta.rows = append(ta.rows, row)
	}
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
	recvX map[packet.ID][]core.Sym // received x-payloads, decode rows
	ya    *wire.YAnnounce
	zs    []*wire.ZPacket
	sa    *wire.SAnnounce
	pr    core.PartialRound
	recvd bool // ReceiveRoundInto has run
}
