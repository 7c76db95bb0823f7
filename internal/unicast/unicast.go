// Package unicast implements the baseline algorithm the paper's §3.2
// dismisses: run Phase 1 exactly as the group protocol does (pair-wise
// secrets via wiretap extraction), then have the leader pick a fresh group
// key and unicast it to each terminal one-time-pad-encrypted under that
// terminal's pair-wise secret.
//
// The baseline is information-theoretically sound — a one-time pad under a
// perfect pair-wise secret leaks nothing — but it makes n-1 separate
// transmissions of the same L-packet key, so its efficiency decays like
// 1/((n-1)·p(1-p)) and "goes to 0 as the number of terminals n increases",
// which is the dashed family of curves in Figure 1.
package unicast

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eve"
	"repro/internal/matrix"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/wire"
)

// Sym is the protocol field symbol (GF(2^16)).
type Sym = core.Sym

// RunSession executes the unicast baseline with the same configuration,
// medium and adversary interface as core.RunSession, so results are
// directly comparable.
func RunSession(cfg core.Config, med *radio.Medium, eveNodes []radio.NodeID) (*core.SessionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Terminals
	if med.Nodes() < n {
		return nil, fmt.Errorf("unicast: medium has %d nodes, need %d terminals", med.Nodes(), n)
	}
	for _, ev := range eveNodes {
		if int(ev) < 0 || int(ev) >= med.Nodes() {
			return nil, fmt.Errorf("unicast: eve node %d outside medium", ev)
		}
		if int(ev) < n {
			return nil, fmt.Errorf("unicast: eve node %d collides with a terminal", ev)
		}
	}

	f := core.Field()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &core.SessionResult{AllAgreed: true}
	startBits := med.BitsSent()
	var planner core.Planner // a round's plan is done with before the next plans

	for round := 0; round < cfg.Rounds; round++ {
		leader := 0
		if cfg.Rotate {
			leader = round % n
		}
		h := wire.Header{From: uint8(leader), Session: uint32(cfg.Seed), Round: uint16(round)}

		// Phase 1 is identical to the group protocol. Everyone computes
		// on the payloads as sent.
		batch := packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes)
		x := make([][]byte, cfg.XPerRound)
		recv := make([]*packet.IDSet, n)
		for i := range recv {
			recv[i] = packet.NewIDSet(cfg.XPerRound)
		}
		eveRecv := packet.NewIDSet(cfg.XPerRound)

		perSlot := (cfg.XPerRound + cfg.SlotsPerRound - 1) / cfg.SlotsPerRound
		for i, pkt := range batch {
			if i > 0 && i%perSlot == 0 {
				med.AdvanceSlot()
			}
			x[i] = pkt.Payload
			xh := h
			xh.Type = wire.TypeX
			frame := wire.Marshal(&wire.XPacket{Header: xh, Seq: uint32(pkt.ID), Payload: pkt.Payload})
			got := med.Broadcast(radio.NodeID(leader), len(frame)*8)
			for t := 0; t < n; t++ {
				if got[t] {
					recv[t].Add(pkt.ID)
				}
			}
			for _, ev := range eveNodes {
				if got[ev] {
					eveRecv.Add(pkt.ID)
				}
			}
		}
		med.AdvanceSlot()
		recv[leader] = fullSet(cfg.XPerRound)
		for t := 0; t < n; t++ {
			if t == leader {
				continue
			}
			ah := h
			ah.Type = wire.TypeAck
			ah.From = uint8(t)
			frame := wire.Marshal(&wire.AckReport{Header: ah, NumX: uint32(cfg.XPerRound), Bitmap: recv[t].Words()})
			med.BroadcastReliable(radio.NodeID(t), len(frame)*8)
		}

		plan := planner.Plan(n, leader, cfg.XPerRound, recv, eveRecv, cfg.Pooling, cfg.Estimator)

		info := core.RoundInfo{
			Round: round, Leader: leader, NumX: cfg.XPerRound,
			NumClasses: len(plan.Classes), M: plan.M, L: plan.L,
			EveMissRate: 1 - float64(eveRecv.Count())/float64(cfg.XPerRound),
			Agreed:      true,
		}
		if plan.L == 0 {
			res.Rounds = append(res.Rounds, info)
			continue
		}

		// Announce the y-packet constructions (terminals need them to
		// derive their pads; Eve overhears).
		y := core.ComputeY(plan, x)
		ya := core.BuildYAnnounce(h, plan)
		med.BroadcastReliable(radio.NodeID(leader), len(wire.Marshal(ya))*8)

		// The leader draws a fresh group key and unicasts it to every
		// terminal, one-time-pad-encrypted with y-packets from that
		// terminal's pair-wise secret. One-time-pad discipline: a y-packet
		// may pad at most ONE key packet (terminals may share a pad for
		// the SAME key packet — identical ciphertexts — but a pad reused
		// across different key packets would hand Eve their XOR). The
		// greedy assignment below may support fewer than L key packets;
		// that shortfall is part of why the paper's Phase 2 redistribution
		// beats unicasting.
		pads, keyLen := assignPads(plan)
		if keyLen == 0 {
			res.Rounds = append(res.Rounds, info)
			continue
		}
		info.L = keyLen
		secret := make([][]byte, keyLen)
		for k := range secret {
			secret[k] = packet.RandomPayload(rng, cfg.PayloadBytes)
		}
		// Joint source space for Eve: the N x-packets plus the fresh key
		// packets.
		know := eve.NewKnowledge(f, cfg.XPerRound+keyLen)
		for _, id := range eveRecv.Slice() {
			know.AddUnit(int(id), x[int(id)])
		}
		yox := plan.YOverX()

		// Reusable per-transmission buffers: AddCombo copies what it keeps,
		// and the decrypt check consumes ct and dec before the next
		// iteration.
		ct := make([]byte, cfg.PayloadBytes)
		dec := make([]byte, cfg.PayloadBytes)
		pad := make([]byte, cfg.PayloadBytes)
		row := make([]Sym, cfg.XPerRound+keyLen)
		for t := 0; t < n; t++ {
			if t == leader {
				continue
			}
			for k := 0; k < keyLen; k++ {
				idx := pads[t][k]
				subtle.XORBytes(ct, secret[k], y[idx])
				uh := h
				uh.Type = wire.TypeZ
				frame := wire.Marshal(&wire.ZPacket{Header: uh, Index: uint16(k), Payload: ct})
				med.BroadcastReliable(radio.NodeID(leader), len(frame)*8)
				// Eve hears the ciphertext: ct = s_k + y_idx, a linear
				// combination over the joint space.
				clear(row)
				copy(row, yox.Row(idx))
				row[cfg.XPerRound+k] = 1
				know.AddCombo(row, ct)
			}
		}

		// Terminals decrypt with their own pads and must agree.
		for t := 0; t < n; t++ {
			if t == leader {
				continue
			}
			for k := 0; k < keyLen; k++ {
				// Recompute the pad from received x-packets: check every
				// referenced packet arrived, then combine in one fused
				// kernel call.
				yrow := yox.Row(pads[t][k])
				for c, v := range yrow {
					if v != 0 && !recv[t].Has(packet.ID(c)) {
						return nil, fmt.Errorf("unicast: pad for terminal %d uses unreceived packet %d", t, c)
					}
				}
				clear(pad)
				f.AddMulBE16(pad, x, yrow)
				// Decrypt the ciphertext the leader sent t for key packet
				// k: the pad recomputed from x-packets must cancel the
				// leader's y.
				subtle.XORBytes(ct, secret[k], y[pads[t][k]])
				subtle.XORBytes(dec, ct, pad)
				if !bytes.Equal(dec, secret[k]) {
					info.Agreed = false
					res.AllAgreed = false
				}
			}
		}

		// Secrecy certificate over the joint space.
		secretRows := make([][]Sym, keyLen)
		for k := range secretRows {
			row := make([]Sym, cfg.XPerRound+keyLen)
			row[cfg.XPerRound+k] = 1
			secretRows[k] = row
		}
		u := know.UnknownSecretDims(matrix.FromRows(f, secretRows))
		info.UnknownDims = u

		for k := range secret {
			res.Secret = append(res.Secret, secret[k]...)
		}
		res.SecretDims += keyLen
		res.UnknownDims += u
		res.Rounds = append(res.Rounds, info)
	}

	res.SecretBits = int64(len(res.Secret)) * 8
	res.BitsTransmitted = med.BitsSent() - startBits
	if res.BitsTransmitted > 0 {
		res.Efficiency = float64(res.SecretBits) / float64(res.BitsTransmitted)
	}
	res.Reliability = core.Reliability(res.SecretDims, res.UnknownDims)
	if res.SecretDims > 0 {
		res.EveKnownFraction = 1 - float64(res.UnknownDims)/float64(res.SecretDims)
	} else {
		res.EveKnownFraction = math.NaN()
	}
	return res, nil
}

// assignPads gives every terminal one pad y-index per key packet under
// one-time-pad discipline: a y-index binds to at most one key packet
// (shared freely among terminals FOR that packet). Greedy per key packet;
// returns the per-terminal pad table and the feasible key length, which
// may fall short of plan.L when the binding constraints exhaust some
// terminal's y-set.
func assignPads(plan *core.Plan) (map[int][]int, int) {
	n := len(plan.Mi)
	pads := make(map[int][]int, n)
	boundTo := make(map[int]int) // y index -> key packet it pads
	keyLen := 0
	for k := 0; k < plan.L; k++ {
		tentative := make(map[int]int) // terminal -> y for this k
		chosen := make(map[int]bool)   // y indices tentatively bound to k
		ok := true
		for t := 0; t < n; t++ {
			if t == plan.Leader {
				continue
			}
			best := -1
			for _, yi := range plan.TerminalYIndices(t) {
				if b, bound := boundTo[yi]; bound && b != k {
					continue // pads a different key packet: never reuse
				}
				if chosen[yi] {
					best = yi // already serving k for another terminal: share
					break
				}
				if best < 0 {
					best = yi
				}
			}
			if best < 0 {
				ok = false
				break
			}
			tentative[t] = best
			chosen[best] = true
		}
		if !ok {
			break
		}
		for t, yi := range tentative {
			boundTo[yi] = k
			pads[t] = append(pads[t], yi)
		}
		keyLen++
	}
	return pads, keyLen
}

func fullSet(n int) *packet.IDSet {
	s := packet.NewIDSet(n)
	for i := 0; i < n; i++ {
		s.Add(packet.ID(i))
	}
	return s
}
