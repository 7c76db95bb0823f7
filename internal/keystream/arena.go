package keystream

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/packet"
	"repro/internal/wire"
)

// arena holds one derivation worker's reusable block-derivation buffers.
// A worker derives one block at a time, so the same buffers serve block
// after block: the leader's round scratch, the x-symbol slabs its exchange
// decodes payloads into, and each member terminal's round scratches and
// x-decode rows. Every buffer's size follows from the Config, so the
// arena stops growing after the first blocks.
type arena struct {
	leader core.RoundScratch

	xn, xw int            // x-packets per round, symbols per x-payload
	mu     sync.Mutex     // the exchange takes x slabs, compute returns them
	xfree  [][][]core.Sym // x-symbol slabs not in use, as per-packet row views

	terms []termArena // indexed by terminal
}

// termArena is one member terminal's share of the arena. Only that
// terminal's goroutine touches it while a block runs.
type termArena struct {
	// ping-pong: round r+1's receive half must not clobber round r's
	// pending elimination.
	scratch [2]core.RoundScratch
	free    []*termRound // recycled round states
	rows    [][]core.Sym // x-decode rows not in use, one x-payload each
	secret  []byte       // the last completed round's secret, for verification
}

func newArena(cfg *Config) *arena {
	return &arena{xn: cfg.XPerRound, xw: cfg.PayloadBytes / 2, terms: make([]termArena, cfg.Terminals)}
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

// zero clears every buffer the arena holds. The worker calls it on exit;
// by then every slab and decode row has been returned.
func (a *arena) zero() {
	a.leader.Zero()
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
		for _, row := range ta.rows {
			clear(row)
		}
	}
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

// put recycles a finished, aborted or abandoned round state and its
// decode rows.
func (ta *termArena) put(st *termRound) {
	for _, row := range st.recvX {
		ta.rows = append(ta.rows, row)
	}
	clear(st.recvX)
	clear(st.zs)
	*st = termRound{recvX: st.recvX, zs: st.zs[:0]}
	ta.free = append(ta.free, st)
}

// termRound is a terminal's in-flight state for one round.
type termRound struct {
	recvX map[packet.ID][]core.Sym // received x-payloads, decode rows
	ya    *wire.YAnnounce
	zs    []*wire.ZPacket
	sa    *wire.SAnnounce
	pr    core.PartialRound
	recvd bool // ReceiveRoundInto has run
}
