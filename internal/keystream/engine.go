package keystream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/transport"
	"repro/internal/wire"
)

// engineStats are the derivation-side counters, atomic because every
// worker's block engine updates them concurrently.
type engineStats struct {
	rounds, productive, aborted atomic.Int64
	verifyOK, verifyMismatch    atomic.Int64
	ackTimeouts, skippedWaits   atomic.Int64
	shed                        atomic.Int64
}

// memberHealth is the stream-level view of which group members answer
// reception reports in time. It is shared across blocks: a member that
// went quiet during block b should not cost block b+1 a full report
// deadline every round. That sharing is what bounds a 10x-slowed member's
// damage to a handful of slow rounds over the whole stream instead of a
// 10x stream slowdown.
type memberHealth struct {
	mu         sync.Mutex
	consecMiss []int
	skips      []int
	// Lifetime totals across all members, for Stats: every skipped wait,
	// and the subset that were liveness re-probes.
	skipsTotal  int64
	probesTotal int64
}

const (
	healthMissLimit  = 3  // consecutive misses before we stop waiting
	healthProbeEvery = 16 // skipped waits between liveness re-probes
)

func newMemberHealth(n int) *memberHealth {
	return &memberHealth{consecMiss: make([]int, n), skips: make([]int, n)}
}

// shouldWait reports whether a round's report deadline should cover
// member t. Unresponsive members are skipped, with a periodic re-probe so
// a recovered member rejoins the wait set.
func (h *memberHealth) shouldWait(t int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.consecMiss[t] < healthMissLimit {
		return true
	}
	h.skips[t]++
	h.skipsTotal++
	if h.skips[t]%healthProbeEvery == 0 {
		h.probesTotal++
		return true
	}
	return false
}

// totals reports the lifetime skip and re-probe counts.
func (h *memberHealth) totals() (skips, probes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.skipsTotal, h.probesTotal
}

func (h *memberHealth) ok(t int) {
	h.mu.Lock()
	h.consecMiss[t] = 0
	h.skips[t] = 0
	h.mu.Unlock()
}

func (h *memberHealth) miss(t int) {
	h.mu.Lock()
	h.consecMiss[t]++
	h.mu.Unlock()
}

// BlockContext carries the stream-level machinery a block derivation (or
// a custom Source) runs against.
type BlockContext struct {
	cfg    *Config
	es     *engineStats
	health *memberHealth
	ins    *streamInstruments
	arena  *arena // the deriving worker's buffers; nil: fresh ones per block
}

// Config returns the stream's (filled) configuration.
func (bc *BlockContext) Config() *Config { return bc.cfg }

// derive produces block idx into dst via the configured source, over the
// calling worker's arena and the block context it holds.
func (s *Stream) derive(a *arena, idx int64, dst []byte) error {
	bc := &a.bc
	if s.cfg.Source != nil {
		return s.cfg.Source(bc, idx, dst)
	}
	return bc.deriveProtocol(idx, dst)
}

// exchRound is one round's transmit-phase outcome, handed from the
// exchange goroutine to the compute goroutine: the round's plan and the
// planner it lives in, and, when the plan yields secret, its x-payload
// symbols. Whoever ends the round returns both to the arena.
type exchRound struct {
	round int
	pl    *core.Planner
	plan  *core.Plan
	xSym  [][]core.Sym
}

// release returns the round's planner and x slab to a.
func (er exchRound) release(a *arena) {
	a.putPlanner(er.pl)
	a.putXSlab(er.xSym)
}

// pipelineDepth is how many rounds the exchange goroutine may run ahead
// of the compute loop's control broadcasts: exchCh holds
// pipelineDepth-1 rounds and one more is in flight.
const pipelineDepth = 3

// inboxDepth is the per-endpoint inbox, in frames, of a block's bus: the
// frames of the pipeline's rounds plus the one a receiver is still
// draining. One round sends an endpoint at most XPerRound x frames,
// M ≤ XPerRound z frames, two beacons (end of X, abort), two announces
// (y, s) and one reception report per other member. A receiver that keeps
// up with its reports never sheds a frame from an inbox this deep.
func inboxDepth(cfg *Config) int {
	return (pipelineDepth + 1) * (2*cfg.XPerRound + 4 + cfg.Terminals - 1)
}

// secretSpan locates one productive round's secret in the block: the n
// bytes at dst[off:] are the first n of its full flattened bytes (fewer
// only in the round whose tail the block discards).
type secretSpan struct {
	off, n, full int
}

// deriveProtocol runs protocol rounds until the block's secret bytes
// cover dst. Without cfg.NewBus the leader derives them alone
// (deriveLeader): the bytes are its secrets, so members would only
// verify them. With a bus, the leader and its members run the pipelined
// exchange on it, described below.
//
// Buffers: the block's endpoints and secret spans, the leader's round
// planners and reception sets, report bookkeeping and timer, rows,
// x-symbol slabs, payload generator and outgoing messages, and the
// terminals' round state, decoded messages and reception reports, come
// from bc.arena and go back to it when a round is computed or abandoned,
// so a worker's steady state derives blocks without reallocating them: a
// warm block allocates only its context, its goroutines, its exchange
// channel and its bus. A context without an arena (a test's) derives on
// a fresh one, zeroed when the block is done. A bus whose Close leaves
// its inboxes open (transport.NewChanBusOver) is fine: members and the
// report collector also stop on the block's context.
//
// Plans: the exchange plans each round into a planner it takes from the
// arena, and the round's plan stays live until the compute loop has
// marshalled the round's s-announce or abort beacon; then the planner
// goes back, as do those of rounds teardown abandons.
//
// Frames: every leader frame and member report is carved from the
// arena's frame slabs and stays unchanged from its send until teardown
// has closed the bus (which joins the bus's own goroutines: a tap's
// observer, a sealed bus's openers) and joined the exchange and the
// terminals. Only then do the slabs rewind, zeroing the frames. Members
// decode every frame they use in place.
//
// Determinism: the leader derives each round's reception sets from the
// radio.Delivered schedule, never from the live reception reports — the
// reports' content only feeds memberHealth and the stats. Since the block
// bus erases by the same schedule, a healthy member's live view matches
// the schedule exactly; a stalled member whose frames were shed diverges,
// fails its own elimination, and is counted in VerifyMismatch — without
// ever touching the bytes. That is the invariant that makes
// (seed, block index) ⇒ bytes hold under arbitrary timing.
//
// Pipelining: the exchange goroutine runs round r+1's packet broadcast
// and report collection while the compute goroutine is still eliminating
// round r (exchCh is the pipeline window, see pipelineDepth); terminals
// split their half with core.ReceiveRoundInto as soon as the y-announce
// arrives and core.PartialRound.Eliminate once the z-packets complete.
//
// Bounded exchange: a round's plan depends on the schedule alone, so the
// exchange goroutine plans round r before broadcasting it and stops once
// the planned secret covers dst (or the abort limit is reached). Every
// exchanged round is computed; none is broadcast only to be thrown away.
func (bc *BlockContext) deriveProtocol(idx int64, dst []byte) error {
	if bc.arena == nil {
		fresh := *bc
		fresh.arena = newArena(bc.cfg)
		defer fresh.arena.zero()
		return fresh.deriveProtocol(idx, dst)
	}
	if bc.cfg.NewBus == nil {
		return bc.deriveLeader(idx, dst)
	}
	cfg, a := bc.cfg, bc.arena
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := blockLeader(cfg, idx)
	session := BlockSession(cfg.Seed, idx)

	bus, err := cfg.NewBus(idx, blockSeed, inboxDepth(cfg))
	if err != nil {
		return fmt.Errorf("keystream: block %d bus: %w", idx, err)
	}
	defer bus.Close()

	// Register every endpoint before the first transmission (a broadcast
	// domain only delivers to attached receivers).
	eps := a.eps
	defer clear(eps)
	for t := 0; t < cfg.Terminals; t++ {
		if eps[t], err = bus.Endpoint(t); err != nil {
			return fmt.Errorf("keystream: block %d endpoint %d: %w", idx, t, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	// Where each round's authoritative secret sits in dst. The compute loop
	// writes a round's bytes and records its span before announcing the
	// round, so a member that completes it finds both.
	auth := &a.auth
	auth.reset(dst, bc.es)
	defer auth.reset(nil, nil)

	// Terminal goroutines: the live-workload and verification layer.
	termWG := &a.termWG
	for t := 0; t < cfg.Terminals; t++ {
		if t == leader {
			continue
		}
		termWG.Add(1)
		go func() {
			defer termWG.Done()
			bc.runTerminal(ctx, eps[t], &a.terms[t], t, leader, session, auth)
		}()
	}

	// Exchange goroutine: plans round r+1 from the schedule, broadcasts its
	// x-packets and collects its reception reports while compute still
	// owns round r. It stops at the last round the block needs.
	exchCh := make(chan exchRound, pipelineDepth-1)
	exchWG := &a.exchWG
	exchWG.Add(1)
	go func() {
		defer exchWG.Done()
		defer close(exchCh)
		timed := bc.ins.exchangeLat != nil
		planned, aborts := 0, 0
		for r := 0; r < 1<<16 && planned < len(dst) && aborts < cfg.MaxAbortRounds; r++ {
			if ctx.Err() != nil {
				return
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			pl := a.planner()
			plan := a.roundPlan(pl, blockSeed, r, leader)
			if plan.L == 0 {
				aborts++
			} else {
				aborts = 0
				planned += plan.L * cfg.PayloadBytes // L secret rows of one payload each
			}
			er, err := bc.exchange(ctx, a, eps[leader], idx, r, leader, session, pl, plan)
			if timed {
				bc.ins.exchangeLat.ObserveSince(t0)
			}
			if err != nil {
				return
			}
			select {
			case exchCh <- er:
			case <-ctx.Done():
				er.release(a)
				return
			}
		}
	}()

	// Compute loop: leader-side elimination, control broadcasts.
	written := 0
	consecAborts := 0
	var derr error
	computeTimed := bc.ins.computeLat != nil
	for er := range exchCh {
		var computeT0 time.Time
		if computeTimed {
			computeT0 = time.Now()
		}
		r, plan := er.round, er.plan
		h := wire.Header{From: uint8(leader), Session: session, Round: uint16(r)}
		bc.es.rounds.Add(1)
		if plan.L == 0 {
			bc.es.aborted.Add(1)
			if computeTimed {
				bc.ins.computeLat.ObserveSince(computeT0)
			}
			consecAborts++
			er.release(a)
			a.beacon = wire.Beacon{Header: h, Kind: wire.BeaconRoundAbort}
			a.beacon.Type = wire.TypeBeacon
			eps[leader].SendCtrl(a.cframes.marshal(&a.beacon))
			if consecAborts >= cfg.MaxAbortRounds {
				derr = fmt.Errorf("keystream: block %d: %d consecutive unproductive rounds (erasure too high or channel dead)",
					idx, consecAborts)
				break
			}
			continue
		}
		consecAborts = 0
		lr := core.ComputeLeaderRound(&a.leader, plan, er.xSym)
		a.putXSlab(er.xSym)
		er.xSym = nil
		sp := secretSpan{off: written, n: core.PutSecretBytes(dst[written:], lr.Secret), full: plan.L * cfg.PayloadBytes}
		auth.set(r, sp)
		if computeTimed {
			bc.ins.computeLat.ObserveSince(computeT0)
		}
		derr = a.announce(eps[leader], h, plan, lr)
		er.release(a)
		if derr != nil {
			break
		}
		bc.es.productive.Add(1)
		written += sp.n
		if written >= len(dst) {
			break
		}
	}
	if derr == nil && written < len(dst) {
		derr = fmt.Errorf("keystream: block %d underrun (%d/%d bytes): %w",
			idx, written, len(dst), firstErr(ctx.Err(), errors.New("exchange stopped")))
	}

	// Teardown: stop the exchange, close the bus (releases any member
	// wedged in an injected stall), drain the workload layer. After that
	// nothing reads the block's frames, and the slabs rewind.
	cancel()
	bus.Close()
	exchWG.Wait()
	for er := range exchCh { // release a pipelined round the compute loop abandoned
		er.release(a)
	}
	termWG.Wait()
	bc.es.shed.Add(bus.ShedFrames())
	a.rewindFrames()
	return derr
}

// deriveLeader derives block idx into dst with no bus and no members, in
// one loop on the worker's arena: plan each round from the schedule and,
// unless it aborts, fill its x-payloads as exchange does (the generator
// is rekeyed every round, so skipping an aborted round's changes none)
// and eliminate its secret into dst. It starts no goroutine and makes no
// context, channel or bus; Timeout is a deadline checked between rounds.
func (bc *BlockContext) deriveLeader(idx int64, dst []byte) error {
	cfg, a := bc.cfg, bc.arena
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := blockLeader(cfg, idx)
	deadline := time.Now().Add(cfg.Timeout)
	pl, x := a.planner(), a.xSlab()
	defer a.putPlanner(pl)
	defer a.putXSlab(x)
	computeTimed := bc.ins.computeLat != nil
	written, aborts := 0, 0
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		t0 := time.Now()
		if t0.After(deadline) {
			return fmt.Errorf("keystream: block %d underrun (%d/%d bytes): %w", idx, written, len(dst), context.DeadlineExceeded)
		}
		plan := a.roundPlan(pl, blockSeed, r, leader)
		if plan.L == 0 {
			bc.es.rounds.Add(1)
			bc.es.aborted.Add(1)
			bc.ins.exchangeLat.ObserveSince(t0)
			if aborts++; aborts >= cfg.MaxAbortRounds {
				return fmt.Errorf("keystream: block %d: %d consecutive unproductive rounds (erasure too high or channel dead)",
					idx, aborts)
			}
			continue
		}
		aborts = 0
		a.xgen.Round(cfg.Seed, idx, r, leader)
		for _, row := range x {
			a.xgen.Fill(a.xpay)
			gf.PutSymbols16(row, a.xpay)
		}
		bc.ins.exchangeLat.ObserveSince(t0)
		var t1 time.Time
		if computeTimed {
			t1 = time.Now()
		}
		lr := core.ComputeLeaderRound(&a.leader, plan, x)
		written += core.PutSecretBytes(dst[written:], lr.Secret)
		bc.ins.computeLat.ObserveSince(t1)
		// Counted with its outcome: Stats shows no round still in flight.
		bc.es.rounds.Add(1)
		bc.es.productive.Add(1)
	}
	if written < len(dst) {
		return fmt.Errorf("keystream: block %d underrun (%d/%d bytes): exchange stopped", idx, written, len(dst))
	}
	return nil
}

// blockLeader is block idx's leader: terminal 0, or with Rotate terminal
// idx mod Terminals.
func blockLeader(cfg *Config, idx int64) int {
	if !cfg.Rotate {
		return 0
	}
	n := int64(cfg.Terminals)
	return int((idx%n + n) % n)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// announce sends a computed round's control broadcasts on the leader's
// endpoint: the y-announce, the z-packets and the s-announce, each filled
// into the arena's message for it and marshalled into the compute loop's
// frame slab, so nothing of the plan is needed once it returns.
func (a *arena) announce(ep transport.Endpoint, h wire.Header, plan *core.Plan, lr *core.LeaderRound) error {
	core.FillYAnnounce(&a.ya, h, plan)
	if err := ep.SendCtrl(a.cframes.marshal(&a.ya)); err != nil {
		return err
	}
	for j, z := range lr.Z {
		core.FillZPacket(&a.zp, h, plan, j, z, a.zpay)
		if err := ep.SendCtrl(a.cframes.marshal(&a.zp)); err != nil {
			return err
		}
	}
	core.FillSAnnounce(&a.sa, h, plan)
	return ep.SendCtrl(a.cframes.marshal(&a.sa))
}

// roundPlan plans round r into pl from the radio.Delivered schedule. It
// never looks at x-payloads, which is what lets the exchange plan a round
// before broadcasting it. One goroutine plans a block's rounds (the
// exchange, or deriveLeader's loop), so one set of reception sets serves
// every round.
func (a *arena) roundPlan(pl *core.Planner, blockSeed int64, r, leader int) *core.Plan {
	scheduleRecv(a.recv, blockSeed, r, leader, a.xn, a.erasure)
	return pl.Plan(len(a.recv), leader, a.xn, a.recv, nil, a.policy.Pooling, a.policy.Estimator)
}

// scheduleRecv reads round r's reception sets, one per terminal, from the
// radio.Delivered schedule — the authoritative inputs to the round plan.
func scheduleRecv(recv []*packet.IDSet, blockSeed int64, r, leader, numX int, p float64) {
	for t, s := range recv {
		s.Reset(numX)
		for seq := 0; seq < numX; seq++ {
			if t == leader || radio.Delivered(blockSeed, r, seq, t, p) {
				s.Add(packet.ID(seq))
			}
		}
	}
}

// exchange runs round r's transmit phase on the leader endpoint: x-packet
// broadcasts, the end-of-X beacon, then the soft report deadline. Reports
// are pacing and health input only — their content never reaches the
// round plan (see deriveProtocol).
//
// The x-payloads are drawn one at a time into the arena's payload buffer,
// from the arena's generator rekeyed for round r of block idx (the bytes
// ReferenceBlock draws, in the same order); each is encoded into a frame
// from the arena's x-frame slab. When the plan yields
// secret, the payloads are also decoded into an x-symbol slab from the
// arena, which the compute loop returns.
func (bc *BlockContext) exchange(ctx context.Context, a *arena, ep transport.Endpoint, idx int64, r, leader int, session uint32, pl *core.Planner, plan *core.Plan) (exchRound, error) {
	cfg := bc.cfg
	er := exchRound{round: r, pl: pl, plan: plan}
	h := wire.Header{From: uint8(leader), Session: session, Round: uint16(r)}
	a.xgen.Round(cfg.Seed, idx, r, leader)
	if plan.L > 0 {
		er.xSym = a.xSlab()
	}
	xp := &a.xp
	*xp = wire.XPacket{Header: h, Payload: a.xpay}
	xp.Type = wire.TypeX
	for i := 0; i < cfg.XPerRound; i++ {
		a.xgen.Fill(xp.Payload)
		if er.xSym != nil {
			gf.PutSymbols16(er.xSym[i], xp.Payload)
		}
		xp.Seq = uint32(i)
		if err := ep.SendData(a.xframes.marshal(xp)); err != nil {
			er.release(a)
			return exchRound{}, err
		}
	}
	a.xbeacon = wire.Beacon{Header: h, Kind: wire.BeaconEndOfX, Value: uint32(cfg.XPerRound)}
	a.xbeacon.Type = wire.TypeBeacon
	if err := ep.SendCtrl(a.xframes.marshal(&a.xbeacon)); err != nil {
		er.release(a)
		return exchRound{}, err
	}
	bc.collectReports(ctx, a, ep, r, leader, session)
	return er, nil
}

// collectReports waits — up to AckWait, tightened to AckSlack once the
// first report lands — for reception reports from members the health
// tracker still considers responsive. A report is counted from its
// header alone (wire.PeekHeader checks the frame's checksum): its bitmap
// never reaches the plan. The bookkeeping and the timer are the arena's,
// reused round after round; under Go 1.23 timer semantics Reset and Stop
// leave no stale tick behind.
func (bc *BlockContext) collectReports(ctx context.Context, a *arena, ep transport.Endpoint, r, leader int, session uint32) {
	cfg := bc.cfg
	waitFor, acked := a.waitFor, a.acked
	clear(waitFor)
	clear(acked)
	need := 0
	for t := 0; t < cfg.Terminals; t++ {
		if t == leader {
			continue
		}
		if bc.health.shouldWait(t) {
			waitFor[t] = true
			need++
		} else {
			bc.es.skippedWaits.Add(1)
		}
	}
	if need == 0 {
		return
	}
	if a.ackTimer == nil {
		a.ackTimer = time.NewTimer(cfg.AckWait)
	} else {
		a.ackTimer.Reset(cfg.AckWait)
	}
	timer := a.ackTimer
	defer timer.Stop()
	first := false
	got := 0
	for got < need {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			bc.es.ackTimeouts.Add(1)
			for t := 0; t < cfg.Terminals; t++ {
				if waitFor[t] && !acked[t] {
					bc.health.miss(t)
				}
			}
			return
		case env, ok := <-ep.Recv():
			if !ok {
				return
			}
			h, err := wire.PeekHeader(env.Frame)
			if err != nil || h.Type != wire.TypeAck || h.Session != session || int(h.Round) != r {
				continue
			}
			t := int(h.From)
			if t == leader || t >= cfg.Terminals || acked[t] {
				continue
			}
			acked[t] = true
			bc.health.ok(t)
			if waitFor[t] {
				got++
			}
			if !first {
				first = true
				timer.Reset(cfg.AckSlack)
			}
		}
	}
}

// runTerminal is one non-leader member's event loop: collect x-packets,
// report receptions, run the receive half as soon as the y-announce
// lands, eliminate once the z-packets complete, and hand the derived
// secret to verify (nil when the round could not be completed). It is
// deliberately tolerant: missing frames (shed during a stall) surface as
// elimination failures or abandoned rounds — verification mismatches,
// never block failures. Round states and their x-decode rows come from
// ta and return to it when the round finishes, aborts or is
// garbage-collected, and when the member stops: on a closed inbox, or
// once ctx has ended and it has drained, without blocking, what its
// inbox already holds — so the block's last round is still verified.
func (bc *BlockContext) runTerminal(ctx context.Context, ep transport.Endpoint, ta *termArena, self, leader int, session uint32, auth *blockAuth) {
	cfg := bc.cfg
	rounds := ta.rounds
	defer func() {
		for r, st := range rounds {
			delete(rounds, r)
			ta.put(st)
		}
	}()
	verify := auth.verify
	maxRound := -1

	state := func(r int) *termRound {
		st, ok := rounds[r]
		if !ok {
			st = ta.round()
			rounds[r] = st
		}
		return st
	}
	drop := func(r int, st *termRound) {
		delete(rounds, r)
		ta.put(st)
	}
	finish := func(r int, st *termRound) {
		m := 0
		for _, cb := range st.ya.Classes {
			m += len(cb.Coeffs)
		}
		if len(st.zs) < m-len(st.sa.Coeffs) {
			return // z stragglers still in flight
		}
		var secret []byte
		// A later round of the same parity may have taken the round's
		// scratch (over a UDP bus a retransmitted control frame can arrive
		// after the next rounds' announces): such a round cannot be
		// eliminated, and verifies as a mismatch.
		if st.recvd && ta.owner[r%2] == st {
			if rows, err := st.pr.Eliminate(st.zs, st.sa); err == nil {
				secret = ta.secretBytes(rows)
			}
		}
		verify(r, secret)
		drop(r, st)
	}

	recv := ep.Recv()
	next := func() (transport.Env, bool) {
		select {
		case env, ok := <-recv:
			return env, ok
		case <-ctx.Done():
			select {
			case env, ok := <-recv:
				return env, ok
			default:
				return transport.Env{}, false
			}
		}
	}
	for env, ok := next(); ok; env, ok = next() {
		m, err := ta.decode(env.Frame)
		if err != nil || m == nil {
			continue
		}
		h := m.Hdr()
		if h.Session != session || int(h.From) != leader {
			continue
		}
		r := int(h.Round)
		if r > maxRound {
			maxRound = r
			// Garbage-collect rounds the pipeline has moved past: an
			// incomplete round that had reached its announce phase means
			// frames this member needed were shed. Only rounds more than
			// pipelineDepth behind the newest go — the exchange goroutine
			// runs up to pipelineDepth rounds ahead of the compute
			// goroutine's control broadcasts, so round r's announce can
			// legitimately arrive after round r+pipelineDepth's x-packets.
			for old, st := range rounds {
				if old < maxRound-pipelineDepth {
					if st.ya != nil {
						verify(old, nil)
					}
					drop(old, st)
				}
			}
		}
		switch mm := m.(type) {
		case *wire.XPacket:
			if int(mm.Seq) < cfg.XPerRound && len(mm.Payload) == cfg.PayloadBytes {
				ta.putX(state(r), packet.ID(mm.Seq), mm.Payload)
			}
		case *wire.Beacon:
			switch mm.Kind {
			case wire.BeaconEndOfX:
				st := state(r)
				numX := int(mm.Value)
				ta.mine.Reset(numX)
				for id := range st.recvX {
					if int(id) < numX {
						ta.mine.Add(id)
					}
				}
				ah := wire.Header{From: uint8(self), Session: session, Round: uint16(r), Type: wire.TypeAck}
				ta.ack = wire.AckReport{Header: ah, NumX: uint32(numX), Bitmap: ta.mine.Words()}
				// A closed or stalled bus makes this fail or block; both are
				// fine — the leader's deadline does not depend on us.
				ep.SendCtrl(ta.frames.marshal(&ta.ack))
			case wire.BeaconRoundAbort:
				if st, ok := rounds[r]; ok {
					drop(r, st) // unproductive round: nothing to verify
				}
			}
		case *wire.YAnnounce:
			st := state(r)
			if st.ya != nil {
				ta.yfree = append(ta.yfree, st.ya)
			}
			st.ya, ta.ya = mm, nil
			pr, err := core.ReceiveRoundInto(&ta.scratch[r%2], st.recvX, mm)
			ta.owner[r%2] = st
			if err == nil {
				st.pr = pr
				st.recvd = true
			}
			if st.sa != nil {
				finish(r, st)
			}
		case *wire.ZPacket:
			st := state(r)
			dup := false
			for _, z := range st.zs {
				if z.Index == mm.Index {
					dup = true
					break
				}
			}
			if !dup {
				st.zs = append(st.zs, mm)
				ta.z = nil
			}
			if st.ya != nil && st.sa != nil {
				finish(r, st)
			}
		case *wire.SAnnounce:
			st := state(r)
			if st.sa != nil {
				ta.sfree = append(ta.sfree, st.sa)
			}
			st.sa, ta.sa = mm, nil
			if st.ya != nil {
				finish(r, st)
			}
		}
	}
}
