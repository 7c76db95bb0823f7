package keystream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
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
}

// Config returns the stream's (filled) configuration.
func (bc *BlockContext) Config() *Config { return bc.cfg }

// derive produces block idx into dst via the configured source.
func (s *Stream) derive(idx int64, dst []byte) error {
	bc := &BlockContext{cfg: &s.cfg, es: &s.es, health: s.health, ins: &s.ins}
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

// verifyResult is one terminal's derived secret for one round.
type verifyResult struct {
	round  int
	secret []byte // nil: elimination failed (diverged reception)
}

// deriveProtocol runs protocol rounds on a fresh per-block bus until the
// block's secret bytes cover dst.
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
// round r (exchCh is the 2-deep pipeline window); terminals split their
// half with core.ReceiveRoundInto as soon as the y-announce arrives and
// core.PartialRound.Eliminate once the z-packets complete.
//
// Bounded exchange: a round's plan depends on the schedule alone, so the
// exchange goroutine plans round r before broadcasting it and stops once
// the planned secret covers dst (or the abort limit is reached). Every
// exchanged round is computed; none is broadcast only to be thrown away.
func (bc *BlockContext) deriveProtocol(idx int64, dst []byte) error {
	cfg := bc.cfg
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := 0
	if cfg.Rotate {
		leader = int(((idx % int64(cfg.Terminals)) + int64(cfg.Terminals)) % int64(cfg.Terminals))
	}
	session := BlockSession(blockSeed)

	var bus transport.Bus
	var err error
	if cfg.NewBus != nil {
		bus, err = cfg.NewBus(idx, blockSeed)
	} else {
		bus = transport.NewChanBus(cfg.Erasure, blockSeed)
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

	// Authoritative per-round secrets, for the verification collector.
	var authMu sync.Mutex
	auth := make(map[int][]byte)

	// Terminal goroutines: the live-workload and verification layer.
	verifyCh := make(chan verifyResult, 64)
	var termWG sync.WaitGroup
	for t := 0; t < cfg.Terminals; t++ {
		if t == leader {
			continue
		}
		termWG.Add(1)
		go func(t int) {
			defer termWG.Done()
			bc.runTerminal(eps[t], t, leader, session, verifyCh)
		}(t)
	}
	var collectWG sync.WaitGroup
	collectWG.Add(1)
	go func() {
		defer collectWG.Done()
		for vr := range verifyCh {
			authMu.Lock()
			want := auth[vr.round]
			authMu.Unlock()
			if vr.secret != nil && want != nil && bytes.Equal(vr.secret, want) {
				bc.es.verifyOK.Add(1)
			} else {
				bc.es.verifyMismatch.Add(1)
			}
		}
	}()

	// Exchange goroutine: plans round r+1 from the schedule, broadcasts its
	// x-packets and collects its reception reports while compute still
	// owns round r. It stops at the last round the block needs.
	exchCh := make(chan exchRound, 2)
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
			er, err := bc.exchange(ctx, eps[leader], r, leader, session, blockSeed, plan)
			if timed {
				bc.ins.exchangeLat.ObserveSince(t0)
			}
			if err != nil {
				return
			}
			select {
			case exchCh <- er:
			case <-ctx.Done():
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
			eps[leader].SendCtrl(wire.Marshal(&wire.Beacon{Header: ah, Kind: wire.BeaconRoundAbort}))
			if consecAborts >= cfg.MaxAbortRounds {
				derr = fmt.Errorf("keystream: block %d: %d consecutive unproductive rounds (erasure too high or channel dead)",
					idx, consecAborts)
				break
			}
			continue
		}
		consecAborts = 0
		lr := core.ComputeLeaderRound(plan, er.xSym)
		secret := core.SecretBytes(lr.Secret)
		if computeTimed {
			bc.ins.computeLat.ObserveSince(computeT0)
		}
		authMu.Lock()
		auth[r] = secret
		authMu.Unlock()
		if err := eps[leader].SendCtrl(wire.Marshal(core.BuildYAnnounce(h, plan))); err != nil {
			derr = err
			break
		}
		for _, zp := range core.BuildZPackets(h, plan, lr.Z) {
			if err := eps[leader].SendCtrl(wire.Marshal(zp)); err != nil {
				derr = err
				break
			}
		}
		if derr != nil {
			break
		}
		if err := eps[leader].SendCtrl(wire.Marshal(core.BuildSAnnounce(h, plan))); err != nil {
			derr = err
			break
		}
		bc.es.productive.Add(1)
		written += copy(dst[written:], secret)
		if written >= len(dst) {
			break
		}
	}
	if derr == nil && written < len(dst) {
		derr = fmt.Errorf("keystream: block %d underrun (%d/%d bytes): %w",
			idx, written, len(dst), firstErr(ctx.Err(), errors.New("exchange stopped")))
	}

	// Teardown: stop the exchange, close the bus (releases any member
	// wedged in an injected stall), drain the workload layer.
	cancel()
	bus.Close()
	exchWG.Wait()
	for range exchCh { // release a pipelined round the compute loop abandoned
	}
	termWG.Wait()
	close(verifyCh)
	collectWG.Wait()
	bc.es.shed.Add(bus.ShedFrames())
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
// The x-payloads are drawn one at a time into a reused buffer (the bytes
// packet.NewBatch would draw, in the same order); Marshal copies each into
// its frame. When the plan yields secret, the payloads are also decoded
// into one symbol slab for the round.
func (bc *BlockContext) exchange(ctx context.Context, ep transport.Endpoint, r, leader int, session uint32, blockSeed int64, plan *core.Plan) (exchRound, error) {
	cfg := bc.cfg
	er := exchRound{round: r, plan: plan}
	h := wire.Header{From: uint8(leader), Session: session, Round: uint16(r)}
	rng := rand.New(rand.NewSource(blockSeed + int64(r)*65537 + int64(leader)))
	if plan.L > 0 {
		w := cfg.PayloadBytes / 2
		slab := make([]core.Sym, cfg.XPerRound*w)
		er.xSym = make([][]core.Sym, cfg.XPerRound)
		for i := range er.xSym {
			er.xSym[i] = slab[i*w : (i+1)*w : (i+1)*w]
		}
	}
	xp := &wire.XPacket{Header: h, Payload: make([]byte, cfg.PayloadBytes)}
	xp.Type = wire.TypeX
	for i := 0; i < cfg.XPerRound; i++ {
		packet.FillPayload(rng, xp.Payload)
		if er.xSym != nil {
			gf.PutSymbols16(er.xSym[i], xp.Payload)
		}
		xp.Seq = uint32(i)
		if err := ep.SendData(wire.Marshal(xp)); err != nil {
			return exchRound{}, err
		}
	}
	bh := h
	bh.Type = wire.TypeBeacon
	if err := ep.SendCtrl(wire.Marshal(&wire.Beacon{Header: bh, Kind: wire.BeaconEndOfX, Value: uint32(cfg.XPerRound)})); err != nil {
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

// termRound is a terminal's in-flight state for one round.
type termRound struct {
	recvX map[packet.ID][]core.Sym
	ya    *wire.YAnnounce
	zs    []*wire.ZPacket
	sa    *wire.SAnnounce
	pr    core.PartialRound
	recvd bool // ReceiveRoundInto has run
}

// runTerminal is one non-leader member's event loop: collect x-packets,
// report receptions, run the receive half as soon as the y-announce
// lands, eliminate once the z-packets complete, and push the derived
// secret for verification. It is deliberately tolerant: missing frames
// (shed during a stall) surface as elimination failures or abandoned
// rounds — verification mismatches, never block failures.
func (bc *BlockContext) runTerminal(ep transport.Endpoint, self, leader int, session uint32, verifyCh chan<- verifyResult) {
	rounds := make(map[int]*termRound)
	var scratch [2]core.RoundScratch // ping-pong: round r+1's receive half must not clobber round r's pending elimination
	maxRound := -1

	state := func(r int) *termRound {
		st, ok := rounds[r]
		if !ok {
			st = &termRound{recvX: make(map[packet.ID][]core.Sym)}
			rounds[r] = st
		}
		return st
	}
	finish := func(r int, st *termRound) {
		m := 0
		for _, cb := range st.ya.Classes {
			m += len(cb.Coeffs)
		}
		if len(st.zs) < m-len(st.sa.Coeffs) {
			return // z stragglers still in flight
		}
		var res verifyResult
		res.round = r
		if st.recvd {
			if rows, err := st.pr.Eliminate(st.zs, st.sa); err == nil {
				res.secret = core.SecretBytes(rows)
			}
		}
		verifyCh <- res
		delete(rounds, r)
	}

	for env := range ep.Recv() {
		m, err := wire.Unmarshal(env.Frame)
		if err != nil {
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
			// frames this member needed were shed. The threshold must
			// exceed the pipeline depth — the exchange goroutine runs up
			// to 3 rounds ahead of the compute goroutine's control
			// broadcasts (exchCh holds 2 plus 1 in flight), so round r's
			// announce can legitimately arrive after round r+3's x-packets.
			for old, st := range rounds {
				if old < maxRound-3 {
					if st.ya != nil {
						verifyCh <- verifyResult{round: old}
					}
					delete(rounds, old)
				}
			}
		}
		switch mm := m.(type) {
		case *wire.XPacket:
			if len(mm.Payload)%2 == 0 {
				state(r).recvX[packet.ID(mm.Seq)] = gf.Symbols16(mm.Payload)
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
				delete(rounds, r) // unproductive round: nothing to verify
			}
		case *wire.YAnnounce:
			st := state(r)
			st.ya = mm
			pr, err := core.ReceiveRoundInto(&scratch[r%2], st.recvX, mm)
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
			}
			if st.ya != nil && st.sa != nil {
				finish(r, st)
			}
		case *wire.SAnnounce:
			st := state(r)
			st.sa = mm
			if st.ya != nil {
				finish(r, st)
			}
		}
	}
}
