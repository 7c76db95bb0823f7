package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/wire"
)

// NodeConfig parameterizes one protocol node in the asynchronous runtime.
type NodeConfig struct {
	core.Config
	// Self is this node's terminal index (0..Terminals-1).
	Self int
	// Session identifies the session in message headers.
	Session uint32
	// Chain, when non-nil, authenticates all control frames (active-Eve
	// defense) and is ratcheted with each round secret. All group members
	// must share the same bootstrap.
	Chain *auth.KeyChain
	// Timeout bounds each wait (for acks, announcements, ...). 0 means
	// 10 seconds.
	Timeout time.Duration
}

// NodeResult is what one node took away from a session.
type NodeResult struct {
	// Secret is the concatenated group secret across productive rounds.
	Secret []byte
	// Rounds is the number of rounds executed; Productive counts rounds
	// that yielded secret bits.
	Rounds     int
	Productive int
	// AuthRejected counts control frames dropped by tag verification.
	AuthRejected int
}

// RunNode executes a full session on one endpoint. Every group member
// must run with an identical core.Config (the schedule — leaders, rounds,
// packet counts — is deterministic given the config).
func RunNode(ctx context.Context, ep Endpoint, cfg NodeConfig) (*NodeResult, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	if cfg.Estimator.NeedsOracle() {
		return nil, errors.New("transport: oracle estimators are analysis-only and cannot run distributed")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Terminals {
		return nil, fmt.Errorf("transport: self index %d out of range", cfg.Self)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Rounds > 1<<16 {
		return nil, fmt.Errorf("transport: %d rounds overflow the uint16 wire round number", cfg.Rounds)
	}
	n := &node{cfg: cfg, ep: ep, res: &NodeResult{}, scratch: new(core.RoundScratch)}
	defer n.xgen.Zero()
	// The distributed runtime shares the in-process engine's round-timing
	// family. Resolved once per call; nil (no registry) keeps the loop
	// clock-free.
	var roundLat *obs.Histogram
	if cfg.Obs.Enabled() {
		roundLat = core.RoundLatency(cfg.Obs)
	}
	timed := roundLat != nil
	for round := 0; round < cfg.Rounds; round++ {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		leader := 0
		if cfg.Rotate {
			leader = round % cfg.Terminals
		}
		var err error
		if leader == cfg.Self {
			err = n.leaderRound(ctx, round)
		} else {
			err = n.terminalRound(ctx, round, leader)
		}
		if err != nil {
			return nil, fmt.Errorf("transport: node %d round %d: %w", cfg.Self, round, err)
		}
		if timed {
			roundLat.ObserveSince(t0)
		}
		n.res.Rounds++
	}
	return n.res, nil
}

type node struct {
	cfg     NodeConfig
	ep      Endpoint
	res     *NodeResult
	backlog []Env
	// scratch carries the terminal-side round buffers across the session's
	// rounds, so a node combines packets without per-round allocation
	// churn.
	scratch *core.RoundScratch
	// zpay is the leader's z-payload buffer: sendCtrl marshals each
	// z-packet before the next one is filled in.
	zpay []byte
	// planner plans each round the node leads; the round is done with its
	// plan before the node leads another.
	planner core.Planner
	// xgen draws the x-payloads of each round the node leads; RunNode
	// zeroes it on return.
	xgen packet.XGen
}

func (n *node) header(round int) wire.Header {
	return wire.Header{From: uint8(n.cfg.Self), Session: n.cfg.Session, Round: uint16(round)}
}

// sendCtrl seals (if authenticated) and broadcasts a control message.
func (n *node) sendCtrl(msg wire.Message) error {
	frame := wire.Marshal(msg)
	if n.cfg.Chain != nil {
		frame = n.cfg.Chain.Seal(frame)
	}
	return n.ep.SendCtrl(frame)
}

// next returns the next message for this session/round matching accept,
// buffering everything else that is still relevant (future rounds).
func (n *node) next(ctx context.Context, round int, accept func(wire.Message) bool) (wire.Message, error) {
	for i, env := range n.backlog {
		if m := n.decode(env, round); m != nil && accept(m) {
			n.backlog = append(n.backlog[:i], n.backlog[i+1:]...)
			return m, nil
		}
	}
	deadline := time.NewTimer(n.cfg.Timeout)
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-deadline.C:
			return nil, fmt.Errorf("timed out waiting for message")
		case env, ok := <-n.ep.Recv():
			if !ok {
				return nil, ErrClosed
			}
			m := n.decode(env, round)
			if m == nil {
				continue
			}
			if accept(m) {
				return m, nil
			}
			if int(m.Hdr().Round) >= round {
				n.backlog = append(n.backlog, env)
			}
		}
	}
}

// decode authenticates (control only), parses and filters a frame.
// It returns nil for frames to drop (stale, foreign, or forged).
func (n *node) decode(env Env, round int) wire.Message {
	frame := env.Frame
	if env.Reliable && n.cfg.Chain != nil {
		open, err := n.cfg.Chain.Open(frame)
		if err != nil {
			n.res.AuthRejected++
			return nil
		}
		frame = open
	}
	m, err := wire.Unmarshal(frame)
	if err != nil {
		return nil
	}
	h := m.Hdr()
	if h.Session != n.cfg.Session || int(h.Round) < round {
		return nil
	}
	return m
}

func (n *node) ratchet(secret []byte) {
	if n.cfg.Chain != nil {
		n.cfg.Chain.Ratchet(secret)
	}
}

func (n *node) leaderRound(ctx context.Context, round int) error {
	cfg := n.cfg
	h := n.header(round)

	// Phase 1 step 1: broadcast fresh x-packets, keyed by (seed, round,
	// leader) under the block no keystream uses.
	n.xgen.Round(cfg.Seed, -1, round, cfg.Self)
	xSym := make([][]core.Sym, cfg.XPerRound)
	for i := range xSym {
		payload := make([]byte, cfg.PayloadBytes)
		n.xgen.Fill(payload)
		xSym[i] = gf.Symbols16(payload)
		xh := h
		xh.Type = wire.TypeX
		if err := n.ep.SendData(wire.Marshal(&wire.XPacket{Header: xh, Seq: uint32(i), Payload: payload})); err != nil {
			return err
		}
	}
	bh := h
	bh.Type = wire.TypeBeacon
	if err := n.sendCtrl(&wire.Beacon{Header: bh, Kind: wire.BeaconEndOfX, Value: uint32(cfg.XPerRound)}); err != nil {
		return err
	}

	// Phase 1 step 2: collect every terminal's reception report.
	recv := make([]*packet.IDSet, cfg.Terminals)
	got := 0
	for got < cfg.Terminals-1 {
		m, err := n.next(ctx, round, func(m wire.Message) bool {
			ar, ok := m.(*wire.AckReport)
			return ok && int(m.Hdr().Round) == round && recvSlotFree(recv, int(ar.From), cfg.Self)
		})
		if err != nil {
			return fmt.Errorf("collecting ack reports (%d/%d): %w", got, cfg.Terminals-1, err)
		}
		ar := m.(*wire.AckReport)
		recv[ar.From] = packet.SetFromWords(ar.Bitmap)
		got++
	}
	recv[cfg.Self] = fullIDs(cfg.XPerRound)

	// Plan the round.
	plan := n.planner.Plan(cfg.Terminals, cfg.Self, cfg.XPerRound, recv, nil, cfg.Pooling, cfg.Estimator)
	if plan.L == 0 {
		ab := h
		ab.Type = wire.TypeBeacon
		return n.sendCtrl(&wire.Beacon{Header: ab, Kind: wire.BeaconRoundAbort})
	}

	// Phases 1.3-2.3: announce, repair, amplify.
	lr := core.ComputeLeaderRound(nil, plan, xSym)
	if err := n.sendCtrl(core.BuildYAnnounce(h, plan)); err != nil {
		return err
	}
	if n.zpay == nil {
		n.zpay = make([]byte, cfg.PayloadBytes)
	}
	var zp wire.ZPacket
	for j, z := range lr.Z {
		core.FillZPacket(&zp, h, plan, j, z, n.zpay)
		if err := n.sendCtrl(&zp); err != nil {
			return err
		}
	}
	if err := n.sendCtrl(core.BuildSAnnounce(h, plan)); err != nil {
		return err
	}
	secret := core.SecretBytes(lr.Secret)
	n.res.Secret = append(n.res.Secret, secret...)
	n.res.Productive++
	n.ratchet(secret)
	return nil
}

func (n *node) terminalRound(ctx context.Context, round, leader int) error {
	// Phase 1 step 1: collect x-packets until the end-of-X beacon.
	xPayloads := make(map[packet.ID][]core.Sym)
	numX := -1
	for numX < 0 {
		m, err := n.next(ctx, round, func(m wire.Message) bool {
			if int(m.Hdr().Round) != round || int(m.Hdr().From) != leader {
				return false
			}
			switch mm := m.(type) {
			case *wire.XPacket:
				return true
			case *wire.Beacon:
				return mm.Kind == wire.BeaconEndOfX
			}
			return false
		})
		if err != nil {
			return fmt.Errorf("collecting x-packets: %w", err)
		}
		switch mm := m.(type) {
		case *wire.XPacket:
			if len(mm.Payload)%2 == 0 {
				xPayloads[packet.ID(mm.Seq)] = gf.Symbols16(mm.Payload)
			}
		case *wire.Beacon:
			numX = int(mm.Value)
		}
	}

	// Phase 1 step 2: report receptions.
	mine := packet.NewIDSet(numX)
	for id := range xPayloads {
		if int(id) < numX {
			mine.Add(id)
		}
	}
	ah := n.header(round)
	ah.Type = wire.TypeAck
	if err := n.sendCtrl(&wire.AckReport{Header: ah, NumX: uint32(numX), Bitmap: mine.Words()}); err != nil {
		return err
	}

	// Wait for the round outcome: abort, or Y announcement followed by
	// z-packets and the s announcement (any interleaving).
	var ya *wire.YAnnounce
	var sa *wire.SAnnounce
	var zs []*wire.ZPacket
	for sa == nil {
		m, err := n.next(ctx, round, func(m wire.Message) bool {
			if int(m.Hdr().Round) != round || int(m.Hdr().From) != leader {
				return false
			}
			switch mm := m.(type) {
			case *wire.YAnnounce, *wire.ZPacket, *wire.SAnnounce:
				return true
			case *wire.Beacon:
				return mm.Kind == wire.BeaconRoundAbort
			}
			return false
		})
		if err != nil {
			return fmt.Errorf("waiting for round outcome: %w", err)
		}
		switch mm := m.(type) {
		case *wire.Beacon:
			return nil // round aborted: no secret
		case *wire.YAnnounce:
			ya = mm
		case *wire.ZPacket:
			zs = append(zs, mm)
		case *wire.SAnnounce:
			sa = mm
		}
	}
	if ya == nil {
		return errors.New("s-announcement before y-announcement")
	}
	// The expected z count is M - L; wait for stragglers (the ARQ may
	// deliver out of order).
	m := 0
	for _, cb := range ya.Classes {
		m += len(cb.Coeffs)
	}
	want := m - len(sa.Coeffs)
	for len(zs) < want {
		msg, err := n.next(ctx, round, func(msg wire.Message) bool {
			zp, ok := msg.(*wire.ZPacket)
			return ok && int(msg.Hdr().Round) == round && int(msg.Hdr().From) == leader && !hasZ(zs, zp.Index)
		})
		if err != nil {
			return fmt.Errorf("collecting z-packets (%d/%d): %w", len(zs), want, err)
		}
		zs = append(zs, msg.(*wire.ZPacket))
	}

	secretRows, err := core.ComputeTerminalSecretInto(n.scratch, xPayloads, ya, zs, sa)
	if err != nil {
		return err
	}
	secret := core.SecretBytes(secretRows)
	n.res.Secret = append(n.res.Secret, secret...)
	n.res.Productive++
	n.ratchet(secret)
	return nil
}

func hasZ(zs []*wire.ZPacket, idx uint16) bool {
	for _, z := range zs {
		if z.Index == idx {
			return true
		}
	}
	return false
}

func recvSlotFree(recv []*packet.IDSet, from, self int) bool {
	return from >= 0 && from < len(recv) && from != self && recv[from] == nil
}

func fullIDs(n int) *packet.IDSet {
	s := packet.NewIDSet(n)
	for i := 0; i < n; i++ {
		s.Add(packet.ID(i))
	}
	return s
}

// RunGroup is a convenience coordinator: it attaches Terminals endpoints
// to the bus and runs every node concurrently, returning the per-node
// results. All nodes must agree on the secret; the error reports the
// first divergence.
func RunGroup(ctx context.Context, bus Bus, cfg NodeConfig, chains []*auth.KeyChain) ([]*NodeResult, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	// Register every endpoint BEFORE any node transmits: a broadcast
	// domain only delivers to attached receivers, and the first leader
	// starts sending immediately.
	eps := make([]Endpoint, cfg.Terminals)
	for i := 0; i < cfg.Terminals; i++ {
		ep, err := bus.Endpoint(i)
		if err != nil {
			return nil, err
		}
		eps[i] = ep
	}
	type outcome struct {
		idx int
		res *NodeResult
		err error
	}
	// A failing node cancels its peers, and EVERY node is drained before
	// returning, so no straggler goroutine is still touching the bus
	// after an error return.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, cfg.Terminals)
	for i := 0; i < cfg.Terminals; i++ {
		nc := cfg
		nc.Self = i
		if chains != nil {
			nc.Chain = chains[i]
		}
		go func(idx int, ep Endpoint, nc NodeConfig) {
			res, err := RunNode(gctx, ep, nc)
			ch <- outcome{idx: idx, res: res, err: err}
		}(i, eps[i], nc)
	}
	results := make([]*NodeResult, cfg.Terminals)
	var firstErr error
	for i := 0; i < cfg.Terminals; i++ {
		o := <-ch
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
				cancel()
			}
			continue
		}
		results[o.idx] = o.res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i := 1; i < cfg.Terminals; i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			return results, fmt.Errorf("transport: node %d derived a different secret", i)
		}
	}
	return results, nil
}
