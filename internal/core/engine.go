package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/eve"
	"repro/internal/gf"
	"repro/internal/mac"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/wire"
)

// RoundInfo summarizes one protocol round.
type RoundInfo struct {
	Round       int
	Leader      int
	NumX        int
	NumClasses  int     // classes that received a budget
	M           int     // y-packets
	L           int     // s-packets (secret size in packets)
	UnknownDims int     // secret packets Eve knows nothing about
	EveMissRate float64 // fraction of this round's x-packets Eve missed
	// EveCoveredTerminals counts non-leader terminals whose reception set
	// was a subset of Eve's — the paper's worst case, in which that
	// terminal can share nothing with the leader that Eve missed. §3.2
	// reports this "never happened in any of the experiments that we ran";
	// the rotation bench measures it.
	EveCoveredTerminals int
	// MaxEveOverlap is the largest fraction, over non-leader terminals,
	// of a terminal's received x-packets that Eve also received — how
	// close the round came to the worst case (1.0 = full coverage).
	MaxEveOverlap float64
	Agreed        bool // all terminals derived the leader's secret
}

// SessionResult is the outcome of a protocol session.
type SessionResult struct {
	// Secret is the concatenated group secret across all rounds. Every
	// terminal holds exactly these bytes.
	Secret []byte
	// SecretDims and UnknownDims count secret packets and the subset Eve
	// has zero information about (summed over rounds).
	SecretDims  int
	UnknownDims int
	// SecretBits is 8 * len(Secret).
	SecretBits int64
	// BitsTransmitted counts every bit any terminal transmitted during the
	// session, control traffic included — the denominator of the paper's
	// efficiency metric.
	BitsTransmitted int64
	// Airtime is the modeled 802.11 channel time the session consumed
	// (DIFS/backoff/preamble/ACK accounting at 1 Mbps; see internal/mac).
	Airtime time.Duration
	// Efficiency = SecretBits / BitsTransmitted.
	Efficiency float64
	// Reliability is the paper's §4 metric: Eve guesses each secret bit
	// with probability 2^-Reliability. NaN if no secret was generated.
	Reliability float64
	// EveKnownFraction = 1 - UnknownDims/SecretDims (NaN if no secret).
	EveKnownFraction float64
	// AllAgreed reports whether every terminal derived the same secret in
	// every productive round.
	AllAgreed bool
	// Rounds holds per-round details.
	Rounds []RoundInfo
}

// SecretKbpsAt converts efficiency into a secret bit rate for a given raw
// channel rate, as in the paper's "efficiency 0.038 at 1 Mbps yields 38
// secret Kbps".
func (r *SessionResult) SecretKbpsAt(channelBitsPerSec float64) float64 {
	return r.Efficiency * channelBitsPerSec / 1000
}

// SecretKbpsAirtime derives the secret rate from the modeled 802.11
// channel time instead of raw bit counts — the stricter conversion, since
// it charges preambles, inter-frame spacing and acknowledgments.
func (r *SessionResult) SecretKbpsAirtime() float64 {
	return mac.SecretRateKbps(r.SecretBits, r.Airtime)
}

// RoundLatency is the protocol engines' shared round-timing family: this
// lockstep engine and the distributed runtime (transport.RunNode) each
// observe one sample per node per round. The keystream's pipelined rounds
// have their own exchange and compute families.
func RoundLatency(r *obs.Registry) *obs.Histogram {
	return r.Histogram("thinaird_engine_round_seconds",
		"Wall time of one protocol round (per node running the engine).", obs.LatencyBuckets)
}

// RunSession executes cfg over the medium. Terminals occupy medium nodes
// 0..n-1; eveNodes lists the eavesdropper's antenna node indices (usually
// one). Eve's antennas must not be terminal nodes.
func RunSession(cfg Config, med *radio.Medium, eveNodes []radio.NodeID) (*SessionResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Terminals
	if med.Nodes() < n {
		return nil, fmt.Errorf("core: medium has %d nodes, need %d terminals", med.Nodes(), n)
	}
	for _, ev := range eveNodes {
		if int(ev) < 0 || int(ev) >= med.Nodes() {
			return nil, fmt.Errorf("core: eve node %d outside medium", ev)
		}
		if int(ev) < n {
			return nil, fmt.Errorf("core: eve node %d collides with a terminal", ev)
		}
	}

	f := Field()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &SessionResult{AllAgreed: true}
	startBits := med.BitsSent()
	acct := mac.NewAccountant(mac.Default())
	// One terminal-side scratch and reception map reused across every
	// (round, terminal) pair: the agreement check below re-runs the
	// terminal computation n-1 times per round, which without reuse
	// dominated the session's allocation profile.
	var tsc RoundScratch
	rm := make(map[packet.ID][]Sym)
	em := newEmitter(cfg.Tracer)
	// Phase-timing instruments resolve once per session; when no
	// registry is plumbed they are nil and every Observe below is a
	// single nil check, with the time.Now calls skipped entirely.
	var roundLat, xPhaseLat, computeLat *obs.Histogram
	if cfg.Obs.Enabled() {
		roundLat = RoundLatency(cfg.Obs)
		xPhaseLat = cfg.Obs.Histogram("thinaird_engine_xphase_seconds",
			"Wall time of the x-packet exchange phase of a round.", obs.LatencyBuckets)
		computeLat = cfg.Obs.Histogram("thinaird_engine_compute_seconds",
			"Wall time of a round's plan/eliminate/derive phase.", obs.LatencyBuckets)
	}
	timed := roundLat != nil

	for round := 0; round < cfg.Rounds; round++ {
		var roundT0 time.Time
		if timed {
			roundT0 = time.Now()
		}
		leader := 0
		if cfg.Rotate {
			leader = round % n
		}
		em.roundStart(round, leader, cfg.XPerRound)
		h := wire.Header{From: uint8(leader), Session: uint32(cfg.Seed), Round: uint16(round)}

		// Phase 1 step 1: transmit N x-packets, spread over the round's
		// interference slots.
		batch := packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes)
		xSym := make([][]Sym, cfg.XPerRound)
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
			xSym[i] = gf.Symbols16(pkt.Payload)
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
				if got[ev] {
					if !eveRecv.Has(pkt.ID) {
						eveRecv.Add(pkt.ID)
						know.AddUnit(int(pkt.ID), xSym[i])
					}
				}
			}
		}
		med.AdvanceSlot() // finish the round's slot rotation
		recv[leader] = fullIDSet(cfg.XPerRound)
		var computeT0 time.Time
		if timed {
			computeT0 = time.Now()
			xPhaseLat.Observe(computeT0.Sub(roundT0).Seconds())
		}
		em.xPhaseDone(round, eveRecv.Count())

		// Phase 1 step 2: reliable reception reports.
		for t := 0; t < n; t++ {
			if t == leader {
				continue
			}
			ah := h
			ah.Type = wire.TypeAck
			ah.From = uint8(t)
			frame := wire.Marshal(&wire.AckReport{Header: ah, NumX: uint32(cfg.XPerRound), Bitmap: recv[t].Words()})
			acct.Reliable(len(frame), n-1)
			med.BroadcastReliable(radio.NodeID(t), len(frame)*8)
		}

		// Plan the round.
		ctx := &EstimatorContext{
			Terminals: n,
			Leader:    leader,
			NumX:      cfg.XPerRound,
			Recv:      recv,
			Classes:   BuildClasses(n, leader, cfg.XPerRound, recv),
		}
		ctx.Classes = cfg.Pooling.Pools(ctx)
		if cfg.Estimator.NeedsOracle() {
			ctx.EveRecv = eveRecv
		}
		plan := BuildPlan(ctx, cfg.Estimator)
		em.planBuilt(round, len(plan.Classes), plan.M, plan.L,
			cfg.Estimator.Name(), cfg.Pooling.Name())

		info := RoundInfo{
			Round:       round,
			Leader:      leader,
			NumX:        cfg.XPerRound,
			NumClasses:  len(plan.Classes),
			M:           plan.M,
			L:           plan.L,
			EveMissRate: 1 - float64(eveRecv.Count())/float64(cfg.XPerRound),
			Agreed:      true,
		}
		for t := 0; t < n; t++ {
			if t == leader {
				continue
			}
			total := recv[t].Count()
			if total == 0 {
				info.EveCoveredTerminals++
				info.MaxEveOverlap = 1
				continue
			}
			missedByEve := recv[t].Diff(eveRecv).Count()
			if missedByEve == 0 {
				info.EveCoveredTerminals++
			}
			if ov := 1 - float64(missedByEve)/float64(total); ov > info.MaxEveOverlap {
				info.MaxEveOverlap = ov
			}
		}
		if plan.L == 0 {
			em.roundAborted(round)
			if timed {
				computeLat.ObserveSince(computeT0)
				roundLat.ObserveSince(roundT0)
			}
			res.Rounds = append(res.Rounds, info)
			continue
		}

		// Phase 1 steps 3-4 and Phase 2 on the leader.
		lr := ComputeLeaderRound(plan, xSym)
		ya := BuildYAnnounce(h, plan)
		yaFrame := wire.Marshal(ya)
		acct.Reliable(len(yaFrame), n-1)
		med.BroadcastReliable(radio.NodeID(leader), len(yaFrame)*8)
		zs := BuildZPackets(h, plan, lr.Z)
		for _, zp := range zs {
			zpFrame := wire.Marshal(zp)
			acct.Reliable(len(zpFrame), n-1)
			med.BroadcastReliable(radio.NodeID(leader), len(zpFrame)*8)
		}
		sa := BuildSAnnounce(h, plan)
		saFrame := wire.Marshal(sa)
		acct.Reliable(len(saFrame), n-1)
		med.BroadcastReliable(radio.NodeID(leader), len(saFrame)*8)

		// Eve overhears everything reliable: compose her view.
		yox := plan.YOverX()
		zc := plan.Redist.ZCoeffs()
		yoxRows := yox.RowViews()
		for j := 0; j < zc.Rows(); j++ {
			row := make([]Sym, cfg.XPerRound)
			f.AddMulSlices(row, yoxRows, zc.Row(j))
			know.AddCombo(row, lr.Z[j])
		}
		secretOverX := plan.Redist.SCoeffs().Mul(yox)
		u := know.UnknownSecretDims(secretOverX)
		info.UnknownDims = u

		// Terminals derive the secret; verify agreement.
		for t := 0; t < n; t++ {
			if t == leader {
				continue
			}
			clear(rm)
			for _, id := range recv[t].Slice() {
				rm[id] = xSym[int(id)]
			}
			sec, err := ComputeTerminalSecretInto(&tsc, rm, ya, zs, sa)
			if err != nil {
				return nil, fmt.Errorf("core: round %d terminal %d: %w", round, t, err)
			}
			if !bytes.Equal(SecretBytes(sec), SecretBytes(lr.Secret)) {
				info.Agreed = false
				res.AllAgreed = false
			}
		}

		em.secretDerived(round, plan.L, u, info.Agreed)
		if timed {
			computeLat.ObserveSince(computeT0)
			roundLat.ObserveSince(roundT0)
		}
		res.Secret = append(res.Secret, SecretBytes(lr.Secret)...)
		res.SecretDims += plan.L
		res.UnknownDims += u
		res.Rounds = append(res.Rounds, info)
	}

	res.SecretBits = int64(len(res.Secret)) * 8
	res.BitsTransmitted = med.BitsSent() - startBits
	res.Airtime = acct.Airtime()
	if res.BitsTransmitted > 0 {
		res.Efficiency = float64(res.SecretBits) / float64(res.BitsTransmitted)
	}
	res.Reliability = Reliability(res.SecretDims, res.UnknownDims)
	em.sessionDone(cfg.Rounds, len(res.Secret), res.Efficiency)
	if res.SecretDims > 0 {
		res.EveKnownFraction = 1 - float64(res.UnknownDims)/float64(res.SecretDims)
	} else {
		res.EveKnownFraction = math.NaN()
	}
	return res, nil
}

// secretOverXMatrix is exposed for white-box tests: the session's secret
// rows composed over the x-source space of a single-plan round.
func secretOverXMatrix(plan *Plan) *matrix.Matrix[Sym] {
	return plan.Redist.SCoeffs().Mul(plan.YOverX())
}
