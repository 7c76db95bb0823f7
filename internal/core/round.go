package core

import (
	"fmt"
	"slices"

	"repro/internal/mds"
	"repro/internal/packet"
	"repro/internal/wire"
)

// LeaderRound is the leader's complete view of one round's coding. Its
// rows are wire-order payloads, each GF(2^16) symbol a big-endian byte
// pair: a z row is its z-packet's payload as sent, and the flattened
// s rows are the round's secret bytes.
type LeaderRound struct {
	Plan   *Plan
	Y      [][]byte // M y-packet payloads
	Z      [][]byte // M-L z-packet payloads (reliably broadcast)
	Secret [][]byte // L s-packet payloads (the round's group secret)
}

// ComputeLeaderRound executes Phase 1 steps 3-4 and Phase 2 on the leader,
// given the plan and the x-packet payloads as sent. The plan must have
// L > 0. Each y-packet is one fused kernel combination over its class's
// x-payloads with the extractor's coefficient row, and each z- and
// s-packet one combination over the y-packets with its row of Q — the
// calls Matrix.Mul makes per output row, without copying the sources into
// a matrix or the products out of one. Every combination runs on the
// payload bytes themselves (gf's AddMulBE16), so nothing is decoded into
// symbols or encoded back.
//
// sc may be nil (a throwaway scratch is used and the rows are fresh);
// otherwise the returned round and its rows alias sc's arena and stay
// valid until the next call with sc (see RoundScratch).
func ComputeLeaderRound(sc *RoundScratch, plan *Plan, x [][]byte) *LeaderRound {
	if plan.L <= 0 {
		panic("core: ComputeLeaderRound on a round with no secret")
	}
	if sc == nil {
		sc = &RoundScratch{}
	}
	sc.reset()
	lr := &sc.lr
	lr.Plan = plan
	lr.Y = sc.computeY(plan, x)
	f := Field()
	width := len(x[0])
	zn := plan.M - plan.L
	lr.Z = lr.Z[:0]
	for j := 0; j < zn; j++ {
		z := sc.row(width)
		f.AddMulBE16(z, lr.Y, plan.Redist.Row(j))
		lr.Z = append(lr.Z, z)
	}
	lr.Secret = lr.Secret[:0]
	for j := 0; j < plan.L; j++ {
		s := sc.row(width)
		f.AddMulBE16(s, lr.Y, plan.Redist.Row(zn+j))
		lr.Secret = append(lr.Secret, s)
	}
	return lr
}

// LeaderSecret is the leader's round when nobody else takes part: a
// leader with no members to announce to needs the round's secret and
// nothing else. It computes the y-packets, then only the s-packets dst
// still has room for, and no z-packet. It writes the longest prefix of
// the flattened secret (ComputeLeaderRound's Secret rows, concatenated)
// that fits in dst and returns its length. Whole s rows are combined
// straight into dst; a final row dst cuts short is combined in sc's
// arena and its prefix copied. The plan must have L > 0; sc may be nil,
// as for ComputeLeaderRound.
func LeaderSecret(sc *RoundScratch, plan *Plan, x [][]byte, dst []byte) int {
	if plan.L <= 0 {
		panic("core: LeaderSecret on a round with no secret")
	}
	if sc == nil {
		sc = &RoundScratch{}
	}
	sc.reset()
	y := sc.computeY(plan, x)
	f := Field()
	width := len(x[0])
	zn := plan.M - plan.L
	n := 0
	for j := 0; j < plan.L && n < len(dst); j++ {
		s := dst[n:]
		if len(s) >= width {
			s = s[:width]
			clear(s)
		} else {
			s = sc.row(width)
		}
		f.AddMulBE16(s, y, plan.Redist.Row(zn+j))
		n += copy(dst[n:], s)
	}
	return n
}

// ComputeY evaluates the plan's y-packet payloads from the x-packet
// payloads (Phase 1 step 3 without the Phase 2 coding), into fresh
// rows. Exposed for the unicast baseline, which shares Phase 1 with the
// group protocol.
func ComputeY(plan *Plan, x [][]byte) [][]byte {
	return new(RoundScratch).computeY(plan, x)
}

// computeY writes the plan's y-packets into sc's arena: per class, one
// fused combination of the class's x-payloads per extractor row.
func (sc *RoundScratch) computeY(plan *Plan, x [][]byte) [][]byte {
	if len(x) != plan.NumX {
		panic("core: x payload count mismatch")
	}
	f := Field()
	y := sc.lr.Y[:0]
	for k, cl := range plan.Classes {
		srcs := sc.srcs[:0]
		for _, id := range cl.IDs {
			srcs = append(srcs, x[int(id)])
		}
		sc.srcs = srcs
		h := plan.Extractors[k].Coeffs()
		for i := 0; i < h.Rows(); i++ {
			row := sc.row(len(srcs[0]))
			f.AddMulBE16(row, srcs, h.Row(i))
			y = append(y, row)
		}
	}
	sc.lr.Y = y
	return y
}

// BuildYAnnounce renders the plan's y-packet constructions as the wire
// message the leader reliably broadcasts (step 3 of Phase 1: identities
// and coefficients, never contents). Its coefficient rows alias the
// plan's extractor matrices: they stay valid while the plan does, and
// must not be written through.
func BuildYAnnounce(h wire.Header, plan *Plan) *wire.YAnnounce {
	msg := new(wire.YAnnounce)
	FillYAnnounce(msg, h, plan)
	return msg
}

// FillYAnnounce is BuildYAnnounce into ya, reusing its class batches and
// their ID and row slices: a leader that announces round after round
// from one message stops allocating once it has announced its widest
// round.
func FillYAnnounce(ya *wire.YAnnounce, h wire.Header, plan *Plan) {
	h.Type = wire.TypeYAnnounce
	ya.Header = h
	ya.Classes = slices.Grow(ya.Classes[:0], len(plan.Classes))[:len(plan.Classes)]
	for k, cl := range plan.Classes {
		cb := &ya.Classes[k]
		cb.XIDs = cb.XIDs[:0]
		for _, id := range cl.IDs {
			cb.XIDs = append(cb.XIDs, uint32(id))
		}
		coeffs := plan.Extractors[k].Coeffs()
		cb.Coeffs = cb.Coeffs[:0]
		for i := 0; i < coeffs.Rows(); i++ {
			cb.Coeffs = append(cb.Coeffs, coeffs.Row(i))
		}
	}
}

// FillZPacket renders z-packet j, whose payload is z, for reliable
// broadcast (step 1 of Phase 2) without allocating: zp's coefficient row
// aliases plan.Redist.Row(j), and its payload is z itself (a
// LeaderRound's z rows are wire-order payloads). zp stays valid while z
// and the plan are unchanged, and neither its row nor its payload may be
// written through.
func FillZPacket(zp *wire.ZPacket, h wire.Header, plan *Plan, j int, z []byte) {
	h.Type = wire.TypeZ
	*zp = wire.ZPacket{Header: h, Index: uint16(j), Coeffs: plan.Redist.Row(j), Payload: z[:len(z):len(z)]}
}

// BuildSAnnounce renders the s-packet coefficient announcement (step 3 of
// Phase 2: identities only, never contents). Its rows alias the plan's
// redistribution code, as BuildYAnnounce's alias its extractors.
func BuildSAnnounce(h wire.Header, plan *Plan) *wire.SAnnounce {
	msg := new(wire.SAnnounce)
	FillSAnnounce(msg, h, plan)
	return msg
}

// FillSAnnounce is BuildSAnnounce into sa, reusing its row slice as
// FillYAnnounce does.
func FillSAnnounce(sa *wire.SAnnounce, h wire.Header, plan *Plan) {
	h.Type = wire.TypeSAnnounce
	sa.Header = h
	sa.Coeffs = sa.Coeffs[:0]
	for i := plan.M - plan.L; i < plan.M; i++ {
		sa.Coeffs = append(sa.Coeffs, plan.Redist.Row(i))
	}
}

// RoundScratch holds the reusable buffers one node needs to run either
// side of a round without per-round allocation churn: the gathered class
// sources and combination rows, the known-y index, the z-packet ordering
// buffers, the erasure-completion system, and an arena of wire-order rows
// every computed payload is written into — the leader's y-, z- and
// s-packets (ComputeLeaderRound, LeaderSecret), a terminal's
// reconstructed y-packets and s-packets (ReceiveRoundInto, Eliminate).
// The zero value is ready to use; buffers grow on first use and are
// reused afterwards, so a long-lived node reaches a zero-allocation
// steady state (pinned by TestRoundCombinationSteadyStateAllocs and
// TestLeaderRoundSteadyStateAllocs).
//
// Rows returned by a call that takes the scratch alias its arena and stay
// valid until the next call with the same scratch; callers that retain a
// round's secret (every current caller copies it into the session key
// pool, the keystream block or a result buffer) are unaffected. Zero
// clears the arena once its owner is done with it.
type RoundScratch struct {
	srcs   [][]byte
	rows   [][]byte
	nrow   int
	known  map[int][]byte
	zs     []*wire.ZPacket
	zc     [][]Sym
	zp     [][]byte
	full   [][]byte
	secret [][]byte
	comp   mds.Completion
	lr     LeaderRound
}

// row returns a zeroed width-byte wire-order row from the arena: the next
// one, grown when the arena runs out or the row in line is too short.
func (sc *RoundScratch) row(width int) []byte {
	i := sc.nrow
	sc.nrow++
	if i < len(sc.rows) && cap(sc.rows[i]) >= width {
		b := sc.rows[i][:width]
		clear(b)
		sc.rows[i] = b
		return b
	}
	b := make([]byte, width)
	if i < len(sc.rows) {
		sc.rows[i] = b
	} else {
		sc.rows = append(sc.rows, b)
	}
	return b
}

// reset prepares the scratch for a new round.
func (sc *RoundScratch) reset() {
	sc.nrow = 0
	clear(sc.known)
}

// Zero clears every row the arena holds — x-derived y-, z- and s-packets
// — and the completion system, so key material does not outlive the
// scratch's owner unzeroed.
func (sc *RoundScratch) Zero() {
	for _, b := range sc.rows {
		clear(b[:cap(b)])
	}
	sc.comp.Zero()
}

// ComputeTerminalSecret executes the terminal side of a round purely from
// the wire messages and the terminal's received x-packet payloads, as
// sent. It allocates fresh result rows; session loops that run many
// rounds should hold a RoundScratch and call ComputeTerminalSecretInto
// instead.
func ComputeTerminalSecret(
	recv map[packet.ID][]byte,
	ya *wire.YAnnounce,
	zs []*wire.ZPacket,
	sa *wire.SAnnounce,
) ([][]byte, error) {
	return ComputeTerminalSecretInto(nil, recv, ya, zs, sa)
}

// ComputeTerminalSecretInto executes the terminal side of a round:
// reconstruct the y-packets of every class fully covered by the reception
// set — each as one fused multi-term kernel combination over the class's
// x-payloads — complete the rest from the z-packets, then form the
// s-packets, again one fused combination per row over the full y-set.
// Every combination runs on the payload bytes (gf's AddMulBE16). It
// returns the round's group secret: its s-packet payloads.
//
// The computation is two halves, exposed separately so a pipelined
// consumer (internal/keystream) can overlap them across rounds: the
// receive half (ReceiveRoundInto) runs as soon as the y-announcement
// arrives, while the round's z-packets are still in flight; the eliminate
// half (PartialRound.Eliminate) runs once the z-packets and the
// s-announcement are in. This composition is pinned byte-identical to the
// halves by TestSplitHalvesMatchCombined.
//
// sc may be nil (a throwaway scratch is used and the results are fresh);
// otherwise the returned rows alias sc's arena as documented on
// RoundScratch.
func ComputeTerminalSecretInto(
	sc *RoundScratch,
	recv map[packet.ID][]byte,
	ya *wire.YAnnounce,
	zs []*wire.ZPacket,
	sa *wire.SAnnounce,
) ([][]byte, error) {
	pr, err := ReceiveRoundInto(sc, recv, ya)
	if err != nil {
		return nil, err
	}
	return pr.Eliminate(zs, sa)
}

// PartialRound is the output of the receive half of a terminal round: the
// directly reconstructed y-packets, waiting for the erasure completion and
// privacy amplification of the eliminate half. It aliases the scratch it
// was built into; a scratch holds at most one live PartialRound (the next
// ReceiveRoundInto on the same scratch invalidates it).
type PartialRound struct {
	sc *RoundScratch
	// M is the round's y-space dimension (the number of announced
	// y-packet constructions).
	M int
}

// Known reports how many y-packets the receive half reconstructed
// directly. Known == M means the eliminate half will skip the erasure
// completion entirely (full reception fast path).
func (pr PartialRound) Known() int { return len(pr.sc.known) }

// ReceiveRoundInto is the receive half of a terminal round: reconstruct
// every y-packet whose class is fully covered by the reception set, one
// fused multi-term kernel combination per announced coefficient row. It
// needs only the x-payloads and the y-announcement — not the z-packets or
// the s-announcement — so a pipelined node runs it while the rest of the
// round's reliable broadcasts are still arriving.
//
// sc may be nil (a throwaway scratch is allocated). The scratch is reset:
// any previous PartialRound built into it is invalidated.
func ReceiveRoundInto(
	sc *RoundScratch,
	recv map[packet.ID][]byte,
	ya *wire.YAnnounce,
) (PartialRound, error) {
	if sc == nil {
		sc = &RoundScratch{}
	}
	sc.reset()
	if sc.known == nil {
		sc.known = make(map[int][]byte)
	}
	f := Field()
	// Reconstruct what we can of the y-packets.
	known := sc.known
	global := 0
	for _, batch := range ya.Classes {
		have := true
		for _, id := range batch.XIDs {
			if _, ok := recv[packet.ID(id)]; !ok {
				have = false
				break
			}
		}
		srcs := sc.srcs[:0]
		width := 0
		if have {
			// Gathered once per class; every coefficient row of the class
			// combines the same received x-payloads.
			for _, id := range batch.XIDs {
				srcs = append(srcs, recv[packet.ID(id)])
			}
			if len(srcs) > 0 {
				width = len(srcs[0])
			}
			sc.srcs = srcs
		}
		for r, row := range batch.Coeffs {
			if len(row) != len(batch.XIDs) {
				return PartialRound{}, fmt.Errorf("core: class coefficient row %d has %d entries for %d x-packets", r, len(row), len(batch.XIDs))
			}
			if have {
				// All x-payloads in a round share one width, so the
				// combination is one fused kernel call over a reused
				// accumulator.
				y := sc.row(width)
				f.AddMulBE16(y, srcs, row)
				known[global] = y
			}
			global++
		}
	}
	return PartialRound{sc: sc, M: global}, nil
}

// Eliminate is the eliminate half of a terminal round: order the
// z-packets, complete the y-packets the receive half could not reconstruct
// directly (the erasure elimination), then apply the announced privacy
// amplification to form the round's group secret. The returned rows alias
// the scratch arena the receive half was built into.
func (pr PartialRound) Eliminate(zs []*wire.ZPacket, sa *wire.SAnnounce) ([][]byte, error) {
	sc, m := pr.sc, pr.M
	f := Field()
	known := sc.known

	// Order the z-packets by index and check coherence.
	zsorted := append(sc.zs[:0], zs...)
	sc.zs = zsorted
	sortZPackets(zsorted)
	coeffs, payloads := sc.zc[:0], sc.zp[:0]
	for j, zp := range zsorted {
		if int(zp.Index) != j {
			return nil, fmt.Errorf("core: z-packet indices not contiguous (saw %d at position %d)", zp.Index, j)
		}
		if len(zp.Coeffs) != m {
			return nil, fmt.Errorf("core: z-packet %d has %d coefficients, want %d", j, len(zp.Coeffs), m)
		}
		if len(zp.Payload)%2 != 0 {
			return nil, fmt.Errorf("core: z-packet %d has odd payload length", j)
		}
		coeffs = append(coeffs, zp.Coeffs)
		payloads = append(payloads, zp.Payload)
	}
	sc.zc, sc.zp = coeffs, payloads

	var full [][]byte
	if len(known) == m {
		// Full reception: every y-packet was reconstructed directly, so the
		// erasure completion is skipped entirely and the scratch rows are
		// used as-is.
		full = sc.full[:0]
		for i := 0; i < m; i++ {
			full = append(full, known[i])
		}
		sc.full = full
	} else {
		// Solve for the missing y-packets in the scratch's completion
		// system, straight from the z-payloads.
		var err error
		full, err = sc.comp.Complete(f, m, known, coeffs, payloads)
		if err != nil {
			return nil, fmt.Errorf("core: completing y-packets: %w", err)
		}
	}

	// Privacy amplification: s = announced coefficients times y.
	secret := sc.secret[:0]
	for i, row := range sa.Coeffs {
		if len(row) != m {
			return nil, fmt.Errorf("core: s-coefficient row %d has %d entries, want %d", i, len(row), m)
		}
		width := 0
		if m > 0 {
			width = len(full[0])
		}
		s := sc.row(width)
		f.AddMulBE16(s, full, row)
		secret = append(secret, s)
	}
	sc.secret = secret
	return secret, nil
}

// sortZPackets orders z-packets by index. Insertion sort: z counts are
// small (M-L per round) and sort.Slice's reflection swapper allocates,
// which would break the round loop's zero-allocation steady state.
func sortZPackets(zs []*wire.ZPacket) {
	for i := 1; i < len(zs); i++ {
		for j := i; j > 0 && zs[j-1].Index > zs[j].Index; j-- {
			zs[j-1], zs[j] = zs[j], zs[j-1]
		}
	}
}

// PutSecretBytes writes the longest prefix of the flattened secret (its
// s-packet payloads, concatenated) that fits in dst and returns its
// length.
func PutSecretBytes(dst []byte, secret [][]byte) int {
	n := 0
	for _, row := range secret {
		k := copy(dst[n:], row)
		n += k
		if k < len(row) {
			break
		}
	}
	return n
}

// PairwiseSecret returns terminal i's Phase-1 pair-wise secret with the
// round's leader: the concatenation of the y-packets the terminal can
// reconstruct ("their shared pair-wise secret is the concatenation of
// these packets"). The group protocol consumes these via Phase 2; the
// function exposes them directly for pair-oriented applications and the
// unicast baseline.
func PairwiseSecret(plan *Plan, y [][]byte, terminal int) []byte {
	var out []byte
	for _, idx := range plan.TerminalYIndices(terminal) {
		out = append(out, y[idx]...)
	}
	return out
}
