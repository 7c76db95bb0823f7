package core

import (
	"fmt"
	"math/rand"

	"repro/internal/eve"
	"repro/internal/mac"
	"repro/internal/matrix"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/wire"
)

// PairInfo is one terminal's Phase-1 outcome: its pair-wise secret with
// the leader and the secrecy certificate for it.
type PairInfo struct {
	Terminal int
	// Secret is the concatenated y-packet payloads (the paper's §3.1:
	// "their shared pair-wise secret is the concatenation of these
	// packets").
	Secret []byte
	// SecretDims / UnknownDims count the terminal's y-packets and how
	// many of them Eve has zero information about.
	SecretDims  int
	UnknownDims int
	// Reliability is the paper's metric restricted to this pair.
	Reliability float64
}

// PairwiseResult is the outcome of a Phase-1-only session.
type PairwiseResult struct {
	Leader          int
	Pairs           []PairInfo
	BitsTransmitted int64
	Airtime         int64 // nanoseconds (see mac)
}

// RunPairwiseRound executes Phase 1 only — §3.1 of the paper, the
// pair-wise secret protocol — over one round: the leader transmits
// x-packets, collects reception reports, announces the y-packet
// constructions, and every terminal ends up with a pair-wise secret with
// the leader. No z/s traffic is sent, so distinct terminals' secrets stay
// un-redistributed (and overlap where reception classes are shared).
func RunPairwiseRound(cfg Config, med *radio.Medium, eveNodes []radio.NodeID) (*PairwiseResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Terminals
	if med.Nodes() < n {
		return nil, fmt.Errorf("core: medium has %d nodes, need %d terminals", med.Nodes(), n)
	}
	for _, ev := range eveNodes {
		if int(ev) < n || int(ev) >= med.Nodes() {
			return nil, fmt.Errorf("core: eve node %d invalid", ev)
		}
	}
	f := Field()
	rng := rand.New(rand.NewSource(cfg.Seed))
	startBits := med.BitsSent()
	acct := mac.NewAccountant(mac.Default())
	leader := 0
	h := wire.Header{From: uint8(leader), Session: uint32(cfg.Seed)}

	batch := packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes)
	x := make([][]byte, cfg.XPerRound)
	recv := make([]*packet.IDSet, n)
	for i := range recv {
		recv[i] = packet.NewIDSet(cfg.XPerRound)
	}
	eveRecv := packet.NewIDSet(cfg.XPerRound)
	know := eve.NewKnowledge(f, cfg.XPerRound)

	perSlot := (cfg.XPerRound + cfg.SlotsPerRound - 1) / cfg.SlotsPerRound
	for i, pkt := range batch {
		if i > 0 && i%perSlot == 0 {
			med.AdvanceSlot()
		}
		x[i] = pkt.Payload
		xh := h
		xh.Type = wire.TypeX
		frame := wire.Marshal(&wire.XPacket{Header: xh, Seq: uint32(pkt.ID), Payload: pkt.Payload})
		acct.Data(len(frame))
		got := med.Broadcast(radio.NodeID(leader), len(frame)*8)
		for t := 0; t < n; t++ {
			if got[t] {
				recv[t].Add(pkt.ID)
			}
		}
		for _, ev := range eveNodes {
			if got[ev] && !eveRecv.Has(pkt.ID) {
				eveRecv.Add(pkt.ID)
				know.AddUnit(int(pkt.ID), pkt.Payload)
			}
		}
	}
	med.AdvanceSlot()
	recv[leader] = fullIDSet(cfg.XPerRound)
	for t := 1; t < n; t++ {
		ah := h
		ah.Type = wire.TypeAck
		ah.From = uint8(t)
		frame := wire.Marshal(&wire.AckReport{Header: ah, NumX: uint32(cfg.XPerRound), Bitmap: recv[t].Words()})
		acct.Reliable(len(frame), n-1)
		med.BroadcastReliable(radio.NodeID(t), len(frame)*8)
	}

	plan := new(Planner).Plan(n, leader, cfg.XPerRound, recv, eveRecv, cfg.Pooling, cfg.Estimator)

	res := &PairwiseResult{Leader: leader}
	var y [][]byte
	var yox *matrix.Matrix[Sym]
	if plan.M > 0 {
		y = ComputeY(plan, x)
		ya := BuildYAnnounce(h, plan)
		frame := wire.Marshal(ya)
		acct.Reliable(len(frame), n-1)
		med.BroadcastReliable(radio.NodeID(leader), len(frame)*8)
		yox = plan.YOverX()
	}
	for t := 1; t < n; t++ {
		info := PairInfo{Terminal: t}
		idx := plan.TerminalYIndices(t)
		info.SecretDims = len(idx)
		if len(idx) > 0 {
			info.Secret = PairwiseSecret(plan, y, t)
			rows := yox.SubRows(idx)
			info.UnknownDims = know.UnknownSecretDims(rows)
		}
		info.Reliability = Reliability(info.SecretDims, info.UnknownDims)
		res.Pairs = append(res.Pairs, info)
	}
	res.BitsTransmitted = med.BitsSent() - startBits
	res.Airtime = int64(acct.Airtime())
	return res, nil
}
