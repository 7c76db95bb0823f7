package keystream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
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

// pipelineDepth is how many rounds behind the newest a member keeps a
// round it has not completed: over a UDP bus a control unit whose first
// datagram was lost can land after later rounds' frames. It also sizes
// the inboxes (inboxDepth) and the members' report slabs.
const pipelineDepth = 3

// inboxDepth is the per-endpoint inbox, in frames, of a block's bus:
// pipelineDepth rounds of frames plus the one a receiver is still
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
// verify them. With a bus, the leader runs one loop on the calling
// goroutine, round by round: plan the round, send its x frames as one
// data burst (aborted rounds too), combine a productive round's payloads
// where they lie in the frames and copy its secret into dst, send the
// end-of-X beacon and the y-announce, z-packets and s-announce (or the
// abort beacon) as one control burst, and collect the round's reception
// reports. Each member runs runTerminal on a goroutine of its own.
//
// Buffers come from bc.arena (see arena). A context without one (a
// test's) derives on a fresh arena, zeroed when the block is done. A bus
// whose Close leaves its inboxes open (transport.NewChanBusOver) is
// fine: members also stop on the block's context.
//
// Frames: the leader's frames and members' reports are carved from the
// arena's slabs and stay unchanged until teardown has closed the bus
// (joining its own goroutines: a tap's observer, a sealed bus's openers)
// and joined the members; then the slabs rewind, zeroing them. Members
// decode frames in place and keep payloads as views of them.
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
// The exchange histogram observes a round's plan, fill, sends and report
// wait; the compute histogram a productive round's combination and copy.
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

	// Where each round's authoritative secret sits in dst. The leader
	// writes a round's bytes and records its span before announcing the
	// round, so a member that completes it finds both.
	auth := &a.auth
	auth.reset(dst, bc.es)
	defer auth.reset(nil, nil)

	// Terminal goroutines: the live-workload and verification layer.
	for t := 0; t < cfg.Terminals; t++ {
		if t == leader {
			continue
		}
		a.termWG.Add(1)
		go func() {
			defer a.termWG.Done()
			bc.runTerminal(ctx, eps[t], &a.terms[t], t, leader, session, auth)
		}()
	}
	// Teardown: stop the members, close the bus (releases any member
	// wedged in an injected stall) and wait for them. After that nothing
	// reads the block's frames, and the slabs rewind.
	defer func() {
		cancel()
		bus.Close()
		a.termWG.Wait()
		bc.es.shed.Add(bus.ShedFrames())
		a.rewindFrames()
	}()

	ep, timed := eps[leader], bc.ins.exchangeLat != nil
	fl := wire.XFrameLen(cfg.PayloadBytes)
	written, aborts := 0, 0
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("keystream: block %d underrun (%d/%d bytes): %w", idx, written, len(dst), err)
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		plan := a.roundPlan(blockSeed, r, leader)
		// The x-payloads, the bytes ReferenceBlock draws in the same
		// order, go straight into their frames, carved back to back.
		h := wire.Header{From: uint8(leader), Session: session, Round: uint16(r)}
		a.xgen.Round(cfg.Seed, idx, r, leader)
		span := a.xframes.carve(cfg.XPerRound * fl)[:cfg.XPerRound*fl]
		burst := a.burst[:cfg.XPerRound]
		for i := range burst {
			burst[i] = wire.AppendXFill(span[i*fl:i*fl:(i+1)*fl], h, uint32(i), cfg.PayloadBytes, &a.xgen)
		}
		if err := ep.SendData(burst[0], burst[1:]...); err != nil {
			return fmt.Errorf("keystream: block %d round %d: %w", idx, r, err)
		}
		var lr *core.LeaderRound
		var sp secretSpan
		var compute time.Duration
		if plan.L > 0 {
			var t1 time.Time
			if timed {
				t1 = time.Now()
			}
			lr = core.ComputeLeaderRound(&a.leader, plan, a.frameRows(span))
			sp = secretSpan{off: written, full: plan.L * cfg.PayloadBytes}
			for _, row := range lr.Secret {
				sp.n += copy(dst[written+sp.n:], row)
			}
			auth.set(r, sp)
			if timed {
				compute = time.Since(t1)
				bc.ins.computeLat.Observe(compute.Seconds())
			}
		}
		if err := a.announce(ep, h, plan, lr); err != nil {
			return fmt.Errorf("keystream: block %d round %d: %w", idx, r, err)
		}
		bc.collectReports(ctx, a, ep, r, leader, session)
		if timed {
			bc.ins.exchangeLat.Observe((time.Since(t0) - compute).Seconds())
		}
		// Counted with its outcome: Stats shows no round still in flight.
		bc.es.rounds.Add(1)
		if plan.L > 0 {
			bc.es.productive.Add(1)
			aborts, written = 0, written+sp.n
			continue
		}
		bc.es.aborted.Add(1)
		if aborts++; aborts >= cfg.MaxAbortRounds {
			return fmt.Errorf("keystream: block %d: %d consecutive unproductive rounds (erasure too high or channel dead)",
				idx, aborts)
		}
	}
	if written < len(dst) {
		return fmt.Errorf("keystream: block %d underrun (%d/%d bytes): exchange stopped", idx, written, len(dst))
	}
	return nil
}

// deriveLeader derives block idx into dst with no bus and no members, in
// one loop on the worker's arena: plan each round from the schedule and,
// unless it aborts, fill its x-payloads into the arena's x rows from the
// generator as a bus block does (the generator is rekeyed every round, so
// skipping an aborted round's changes none), and combine the round's
// secret straight into dst, computing no z-packet and no s-packet dst has
// no room for (core.LeaderSecret). It starts no goroutine and makes no
// context, channel or bus; Timeout is a deadline checked between rounds.
func (bc *BlockContext) deriveLeader(idx int64, dst []byte) error {
	cfg, a := bc.cfg, bc.arena
	blockSeed := BlockSeed(cfg.Seed, idx)
	leader := blockLeader(cfg, idx)
	deadline := time.Now().Add(cfg.Timeout)
	x := a.xRows()
	computeTimed := bc.ins.computeLat != nil
	written, aborts := 0, 0
	for r := 0; r < 1<<16 && written < len(dst); r++ {
		t0 := time.Now()
		if t0.After(deadline) {
			return fmt.Errorf("keystream: block %d underrun (%d/%d bytes): %w", idx, written, len(dst), context.DeadlineExceeded)
		}
		plan := a.roundPlan(blockSeed, r, leader)
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
			a.xgen.Fill(row)
		}
		bc.ins.exchangeLat.ObserveSince(t0)
		var t1 time.Time
		if computeTimed {
			t1 = time.Now()
		}
		written += core.LeaderSecret(&a.leader, plan, x, dst[written:])
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

// announce sends a round's control frames on the leader's endpoint as
// one burst: the end-of-X beacon, then, for a computed round (lr not
// nil), the y-announce, the z-packets and the s-announce, or else the
// abort beacon. Each is filled into the arena's message for it and
// marshalled into the control slab, so nothing of the plan is needed
// once it returns.
func (a *arena) announce(ep transport.Endpoint, h wire.Header, plan *core.Plan, lr *core.LeaderRound) error {
	a.beacon = wire.Beacon{Header: h, Kind: wire.BeaconEndOfX, Value: uint32(a.xn)}
	a.beacon.Type = wire.TypeBeacon
	burst := append(a.burst[:0], a.cframes.marshal(&a.beacon))
	if lr == nil {
		a.beacon.Kind, a.beacon.Value = wire.BeaconRoundAbort, 0
		burst = append(burst, a.cframes.marshal(&a.beacon))
	} else {
		core.FillYAnnounce(&a.ya, h, plan)
		burst = append(burst, a.cframes.marshal(&a.ya))
		for j, z := range lr.Z {
			core.FillZPacket(&a.zp, h, plan, j, z)
			burst = append(burst, a.cframes.marshal(&a.zp))
		}
		core.FillSAnnounce(&a.sa, h, plan)
		burst = append(burst, a.cframes.marshal(&a.sa))
	}
	return ep.SendCtrl(burst[0], burst[1:]...)
}

// roundPlan plans round r into the arena's planner from its reception
// sets, one per terminal, read from the radio.Delivered schedule — the
// authoritative inputs to the plan. It never looks at x-payloads, which
// is what lets the leader plan a round before broadcasting it. A plan
// stays valid until the next roundPlan call.
func (a *arena) roundPlan(blockSeed int64, r, leader int) *core.Plan {
	for t, s := range a.recv {
		s.Reset(a.xn)
		for seq := 0; seq < a.xn; seq++ {
			if t == leader || radio.Delivered(blockSeed, r, seq, t, a.erasure) {
				s.Add(packet.ID(seq))
			}
		}
	}
	return a.planner.Plan(len(a.recv), leader, a.xn, a.recv, nil, a.policy.Pooling, a.policy.Estimator)
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
// never block failures. Round states come from ta and return to it when
// the round finishes, aborts or is garbage-collected, and when the member
// stops: on a closed inbox, or once ctx has ended and it has drained,
// without blocking, what its inbox already holds — so the block's last
// round is still verified. A round keeps its x-payloads as the frames'
// own bytes, which stay unchanged until the block's frames rewind.
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
			// Garbage-collect rounds the leader has moved past: an
			// incomplete round that had reached its announce phase means
			// frames this member needed were shed. Only rounds more than
			// pipelineDepth behind the newest go — over a UDP bus a
			// retransmitted control unit can land after later rounds'
			// frames.
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
				state(r).recvX[packet.ID(mm.Seq)] = mm.Payload
			}
		case *wire.Beacon:
			switch mm.Kind {
			case wire.BeaconEndOfX:
				// The round's x count is the Config's: a beacon naming
				// another (a forged frame) would size the report.
				if int(mm.Value) != cfg.XPerRound {
					continue
				}
				ta.mine.Reset(cfg.XPerRound)
				for id := range state(r).recvX {
					ta.mine.Add(id)
				}
				ah := wire.Header{From: uint8(self), Session: session, Round: uint16(r), Type: wire.TypeAck}
				ta.ack = wire.AckReport{Header: ah, NumX: uint32(cfg.XPerRound), Bitmap: ta.mine.Words()}
				// A closed bus makes this fail at once and a stalled one
				// makes it block; both are fine — the leader's deadline does
				// not depend on us, and teardown closes the bus before it
				// waits for the members.
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
