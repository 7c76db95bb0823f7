package keystream

import (
	"bytes"
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
	// inboxes lends the block's in-process bus its inboxes; nil: fresh
	// ones per block.
	inboxes *inboxPool
}

// Config returns the stream's (filled) configuration.
func (bc *BlockContext) Config() *Config { return bc.cfg }

// derive produces block idx into dst via the configured source, over the
// calling worker's arena.
func (s *Stream) derive(a *arena, idx int64, dst []byte) error {
	bc := &BlockContext{cfg: &s.cfg, es: &s.es, health: s.health, ins: &s.ins, arena: a, inboxes: &s.inboxes}
	if s.cfg.Source != nil {
		return s.cfg.Source(bc, idx, dst)
	}
	return bc.deriveProtocol(idx, dst)
}

// exchRound is one round's transmit-phase outcome, handed from the
// exchange goroutine to the compute goroutine: the round's plan and, when
// the plan yields secret, its x-payload symbols.
type exchRound struct {
	round int
	plan  *core.Plan
	xSym  [][]core.Sym
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

// deriveProtocol runs protocol rounds on a per-block bus until the
// block's secret bytes cover dst.
//
// Buffers: the leader's rows, x-symbol slabs, payload generator and z
// buffer, and the terminals' round state and decoded messages, come from
// bc.arena and go back to it when a round is computed or abandoned, so a
// worker's steady state derives blocks without reallocating them. A
// context without an arena (a test's) derives on a fresh one, zeroed when
// the block is done. Without cfg.NewBus the bus is an in-process ChanBus
// over an inbox set borrowed from bc.inboxes; its Close leaves the
// inboxes open, so members and the report collector stop on the block's
// context, and teardown drains the set before returning it.
//
// Frames: every leader frame is carved from the arena's frame slabs and
// stays unchanged from its send until teardown has closed the bus (which
// joins the bus's own goroutines: a tap's observer, a sealed bus's
// openers), joined the exchange and the terminals and drained the
// borrowed inboxes. Only then do the slabs rewind, zeroing the frames.
// Members decode every frame they use in place.
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
	cfg := bc.cfg
	a := bc.arena
	if a == nil {
		a = newArena(cfg)
		defer a.zero()
	}
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := 0
	if cfg.Rotate {
		leader = int(((idx % int64(cfg.Terminals)) + int64(cfg.Terminals)) % int64(cfg.Terminals))
	}
	session := BlockSession(blockSeed)

	var (
		bus   transport.Bus
		inbox *inboxSet // borrowed from bc.inboxes; nil over cfg.NewBus's bus
		err   error
	)
	if cfg.NewBus != nil {
		bus, err = cfg.NewBus(idx, blockSeed, inboxDepth(cfg))
	} else {
		inbox = bc.inboxes.get(cfg)
		bus = transport.NewChanBusOver(cfg.Erasure, blockSeed, *inbox)
	}
	if err != nil {
		return fmt.Errorf("keystream: block %d bus: %w", idx, err)
	}
	defer bus.Close()

	// Register every endpoint before the first transmission (a broadcast
	// domain only delivers to attached receivers).
	eps := make([]transport.Endpoint, cfg.Terminals)
	for t := 0; t < cfg.Terminals; t++ {
		if eps[t], err = bus.Endpoint(t); err != nil {
			return fmt.Errorf("keystream: block %d endpoint %d: %w", idx, t, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	cc := core.Config{
		Terminals:    cfg.Terminals,
		XPerRound:    cfg.XPerRound,
		PayloadBytes: cfg.PayloadBytes,
		Rounds:       1,
		Seed:         blockSeed,
	}
	if err := cc.Validate(); err != nil {
		return err
	}

	// Where each round's authoritative secret sits in dst. The compute loop
	// writes a round's bytes and its span under authMu before announcing
	// the round, so a member that completes it finds both.
	var authMu sync.Mutex
	auth := make(map[int]secretSpan)
	verify := func(r int, secret []byte) {
		authMu.Lock()
		sp, ok := auth[r]
		good := ok && len(secret) == sp.full && bytes.Equal(secret[:sp.n], dst[sp.off:sp.off+sp.n])
		authMu.Unlock()
		if good {
			bc.es.verifyOK.Add(1)
		} else {
			bc.es.verifyMismatch.Add(1)
		}
	}

	// Terminal goroutines: the live-workload and verification layer.
	var termWG sync.WaitGroup
	for t := 0; t < cfg.Terminals; t++ {
		if t == leader {
			continue
		}
		termWG.Add(1)
		go func(t int) {
			defer termWG.Done()
			bc.runTerminal(ctx, eps[t], &a.terms[t], t, leader, session, verify)
		}(t)
	}

	// Exchange goroutine: plans round r+1 from the schedule, broadcasts its
	// x-packets and collects its reception reports while compute still
	// owns round r. It stops at the last round the block needs.
	exchCh := make(chan exchRound, pipelineDepth-1)
	var exchWG sync.WaitGroup
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
			plan := roundPlan(cfg, &cc, blockSeed, r, leader)
			if plan.L == 0 {
				aborts++
			} else {
				aborts = 0
				planned += plan.L * cfg.PayloadBytes // L secret rows of one payload each
			}
			er, err := bc.exchange(ctx, a, eps[leader], r, leader, session, blockSeed, plan)
			if timed {
				bc.ins.exchangeLat.ObserveSince(t0)
			}
			if err != nil {
				return
			}
			select {
			case exchCh <- er:
			case <-ctx.Done():
				a.putXSlab(er.xSym)
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
			ah := h
			ah.Type = wire.TypeBeacon
			eps[leader].SendCtrl(a.cframes.marshal(&wire.Beacon{Header: ah, Kind: wire.BeaconRoundAbort}))
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
		authMu.Lock()
		sp := secretSpan{off: written, n: core.PutSecretBytes(dst[written:], lr.Secret), full: plan.L * cfg.PayloadBytes}
		auth[r] = sp
		authMu.Unlock()
		if computeTimed {
			bc.ins.computeLat.ObserveSince(computeT0)
		}
		if err := eps[leader].SendCtrl(a.cframes.marshal(core.BuildYAnnounce(h, plan))); err != nil {
			derr = err
			break
		}
		for j, z := range lr.Z {
			core.FillZPacket(&a.zp, h, plan, j, z, a.zpay)
			if err := eps[leader].SendCtrl(a.cframes.marshal(&a.zp)); err != nil {
				derr = err
				break
			}
		}
		if derr != nil {
			break
		}
		if err := eps[leader].SendCtrl(a.cframes.marshal(core.BuildSAnnounce(h, plan))); err != nil {
			derr = err
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
	// wedged in an injected stall), drain the workload layer, empty the
	// borrowed inboxes. After that nothing reads the block's frames, and
	// the slabs rewind.
	cancel()
	bus.Close()
	exchWG.Wait()
	for er := range exchCh { // release a pipelined round the compute loop abandoned
		a.putXSlab(er.xSym)
	}
	termWG.Wait()
	bc.es.shed.Add(bus.ShedFrames())
	if inbox != nil {
		inbox.drain()
	}
	a.rewindFrames()
	if inbox != nil {
		bc.inboxes.put(inbox)
	}
	return derr
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// roundPlan builds round r's plan from the radio.Delivered schedule. It never
// looks at x-payloads, which is what lets the exchange plan a round before
// broadcasting it.
func roundPlan(cfg *Config, cc *core.Config, blockSeed int64, r, leader int) *core.Plan {
	recv := scheduleRecv(blockSeed, r, leader, cfg.Terminals, cfg.XPerRound, cfg.Erasure)
	ectx := &core.EstimatorContext{
		Terminals: cfg.Terminals,
		Leader:    leader,
		NumX:      cfg.XPerRound,
		Recv:      recv,
		Classes:   core.BuildClasses(cfg.Terminals, leader, cfg.XPerRound, recv),
	}
	ectx.Classes = cc.Pooling.Pools(ectx)
	return core.BuildPlan(ectx, cc.Estimator)
}

// scheduleRecv derives round r's reception sets from the radio.Delivered
// schedule — the authoritative inputs to the round plan.
func scheduleRecv(blockSeed int64, r, leader, terminals, numX int, p float64) []*packet.IDSet {
	recv := make([]*packet.IDSet, terminals)
	for t := 0; t < terminals; t++ {
		s := packet.NewIDSet(numX)
		for seq := 0; seq < numX; seq++ {
			if t == leader || radio.Delivered(blockSeed, r, seq, t, p) {
				s.Add(packet.ID(seq))
			}
		}
		recv[t] = s
	}
	return recv
}

// exchange runs round r's transmit phase on the leader endpoint: x-packet
// broadcasts, the end-of-X beacon, then the soft report deadline. Reports
// are pacing and health input only — their content never reaches the
// round plan (see deriveProtocol).
//
// The x-payloads are drawn one at a time into the arena's payload buffer,
// from the arena's generator reseeded for the round (the bytes
// packet.NewBatch would draw from a fresh one, in the same order); each is
// encoded into a frame from the arena's x-frame slab. When the plan yields
// secret, the payloads are also decoded into an x-symbol slab from the
// arena, which the compute loop returns.
func (bc *BlockContext) exchange(ctx context.Context, a *arena, ep transport.Endpoint, r, leader int, session uint32, blockSeed int64, plan *core.Plan) (exchRound, error) {
	cfg := bc.cfg
	er := exchRound{round: r, plan: plan}
	h := wire.Header{From: uint8(leader), Session: session, Round: uint16(r)}
	rng := a.rng
	rng.Seed(blockSeed + int64(r)*65537 + int64(leader))
	if plan.L > 0 {
		er.xSym = a.xSlab()
	}
	xp := wire.XPacket{Header: h, Payload: a.xpay}
	xp.Type = wire.TypeX
	for i := 0; i < cfg.XPerRound; i++ {
		packet.FillPayload(rng, xp.Payload)
		if er.xSym != nil {
			gf.PutSymbols16(er.xSym[i], xp.Payload)
		}
		xp.Seq = uint32(i)
		if err := ep.SendData(a.xframes.marshal(&xp)); err != nil {
			a.putXSlab(er.xSym)
			return exchRound{}, err
		}
	}
	bh := h
	bh.Type = wire.TypeBeacon
	if err := ep.SendCtrl(a.xframes.marshal(&wire.Beacon{Header: bh, Kind: wire.BeaconEndOfX, Value: uint32(cfg.XPerRound)})); err != nil {
		a.putXSlab(er.xSym)
		return exchRound{}, err
	}
	bc.collectReports(ctx, ep, r, leader, session)
	return er, nil
}

// collectReports waits — up to AckWait, tightened to AckSlack once the
// first report lands — for reception reports from members the health
// tracker still considers responsive.
func (bc *BlockContext) collectReports(ctx context.Context, ep transport.Endpoint, r, leader int, session uint32) {
	cfg := bc.cfg
	waitFor := make([]bool, cfg.Terminals)
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
	acked := make([]bool, cfg.Terminals)
	timer := time.NewTimer(cfg.AckWait)
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
			m, err := wire.Unmarshal(env.Frame)
			if err != nil {
				continue
			}
			ar, isAck := m.(*wire.AckReport)
			if !isAck || ar.Header.Session != session || int(ar.Header.Round) != r {
				continue
			}
			t := int(ar.Header.From)
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
				if !timer.Stop() {
					<-timer.C
				}
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
func (bc *BlockContext) runTerminal(ctx context.Context, ep transport.Endpoint, ta *termArena, self, leader int, session uint32, verify func(round int, secret []byte)) {
	cfg := bc.cfg
	rounds := make(map[int]*termRound)
	defer func() {
		for _, st := range rounds {
			ta.put(st)
		}
	}()
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
		if st.recvd {
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
				mine := packet.NewIDSet(numX)
				for id := range st.recvX {
					if int(id) < numX {
						mine.Add(id)
					}
				}
				ah := wire.Header{From: uint8(self), Session: session, Round: uint16(r), Type: wire.TypeAck}
				// A closed or stalled bus makes this fail or block; both are
				// fine — the leader's deadline does not depend on us.
				ep.SendCtrl(wire.Marshal(&wire.AckReport{Header: ah, NumX: uint32(numX), Bitmap: mine.Words()}))
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
