// Package radio simulates the broadcast wireless substrate of the paper's
// testbed: an 802.11-style ad-hoc network in which every transmission is a
// broadcast and every receiver independently either gets the packet or
// loses it (a packet erasure channel), with erasure probabilities driven by
// distance and by artificial interference.
//
// The paper runs on real Asus WL-500gP routers plus WARP interferer nodes;
// the protocol itself, however, only ever consumes *which packets each
// receiver got*. Any physical layer collapses to a per-(tx,rx,slot)
// erasure process, which is what this package provides.
//
// Determinism: a Medium draws all erasures from a single seeded source, so
// an experiment is exactly reproducible from its seed. The broadcast buses
// of the concurrent runtime erase by Delivered instead, a pure
// per-(round, packet, receiver) coin.
package radio

import (
	"fmt"
	"math"
	"math/rand"
)

// NodeID indexes a node on the medium. The protocol uses 0..n-1 for
// terminals and n for Eve, but the medium is agnostic.
type NodeID int

// Position is a point in the testbed plane, in meters.
type Position struct{ X, Y float64 }

// DistanceTo returns the Euclidean distance to q in meters.
func (p Position) DistanceTo(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ErasureModel yields the probability that a packet transmitted by tx is
// erased (lost) at rx during the given time slot. Implementations must be
// deterministic functions of their arguments.
type ErasureModel interface {
	PErase(tx, rx NodeID, slot int) float64
}

// Uniform is the symmetric channel of the paper's Figure-1 analysis: every
// (tx, rx) pair, including Eve's, loses a packet independently with the
// same probability P.
type Uniform struct{ P float64 }

// PErase implements ErasureModel.
func (u Uniform) PErase(tx, rx NodeID, slot int) float64 { return u.P }

// DistanceModel derives erasure probability from node geometry:
// p = min(Base + PerMeter * distance, Cap). It approximates the monotone
// loss-vs-distance behaviour of a low-power indoor link without modelling
// fading explicitly (slot-to-slot independence plays that role).
type DistanceModel struct {
	Pos      []Position // indexed by NodeID
	Base     float64    // loss floor at zero distance
	PerMeter float64    // additional loss per meter
	Cap      float64    // upper bound on loss
}

// PErase implements ErasureModel.
func (m *DistanceModel) PErase(tx, rx NodeID, slot int) float64 {
	if int(tx) >= len(m.Pos) || int(rx) >= len(m.Pos) {
		panic(fmt.Sprintf("radio: node %d/%d outside position table", tx, rx))
	}
	p := m.Base + m.PerMeter*m.Pos[tx].DistanceTo(m.Pos[rx])
	if p > m.Cap {
		p = m.Cap
	}
	if p < 0 {
		p = 0
	}
	return p
}

// JamPattern names one artificial-interference configuration: one grid row
// and one grid column are blanketed with noise, mirroring the paper's WARP
// deployment ("one pair of antennas creates noise along a row, while
// another pair creates noise along a column").
type JamPattern struct{ Row, Col int }

// AllPatterns returns the rows x cols pattern rotation the paper uses
// (9 patterns for the 3x3 grid).
func AllPatterns(rows, cols int) []JamPattern {
	out := make([]JamPattern, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, JamPattern{Row: r, Col: c})
		}
	}
	return out
}

// Jammer layers artificial interference over a base model. During slot t,
// pattern Schedule[t % len(Schedule)] is active; a receiver whose cell lies
// in the jammed row or column suffers an additional independent erasure
// with probability JamPErase:
//
//	p = 1 - (1-base)·(1-JamPErase)
//
// The transmitter's own cell does not shield it: jamming acts at the
// receiver, which is what guarantees that *Eve*, wherever she is, is
// degraded during a known fraction of slots.
type Jammer struct {
	Base      ErasureModel
	CellOf    func(NodeID) (row, col int)
	Schedule  []JamPattern
	JamPErase float64
	// Immune lists receivers that cancel the artificial interference from
	// their received signal — the paper's §6 concern: a multi-antenna
	// adversary "may also be able to cancel out from her received signal
	// some of the artificial interference, provided the multipath channels
	// ... satisfy certain separability conditions". Immune nodes see only
	// the base channel.
	Immune map[NodeID]bool
}

// Active returns the pattern in force during the given slot.
func (j *Jammer) Active(slot int) JamPattern {
	return j.Schedule[slot%len(j.Schedule)]
}

// Jammed reports whether node id's cell is inside the noise of the slot's
// active pattern.
func (j *Jammer) Jammed(id NodeID, slot int) bool {
	p := j.Active(slot)
	r, c := j.CellOf(id)
	return r == p.Row || c == p.Col
}

// PErase implements ErasureModel.
func (j *Jammer) PErase(tx, rx NodeID, slot int) float64 {
	p := j.Base.PErase(tx, rx, slot)
	if j.Immune[rx] {
		return p
	}
	if j.Jammed(rx, slot) {
		p = 1 - (1-p)*(1-j.JamPErase)
	}
	return p
}

// Medium is the broadcast channel shared by all nodes. It applies the
// erasure model per receiver, advances time slots, and keeps the bit
// accounting the efficiency metric needs.
type Medium struct {
	model ErasureModel
	rng   *rand.Rand
	nodes int
	slot  int

	bitsSent     int64
	framesSent   int64
	reliableBits int64
}

// NewMedium creates a medium for the given number of nodes. All erasures
// derive from the given seed.
func NewMedium(model ErasureModel, nodes int, seed int64) *Medium {
	if nodes <= 0 {
		panic("radio: medium needs at least one node")
	}
	return &Medium{model: model, rng: rand.New(rand.NewSource(seed)), nodes: nodes}
}

// Nodes returns the number of nodes on the medium.
func (m *Medium) Nodes() int { return m.nodes }

// Slot returns the current time slot.
func (m *Medium) Slot() int { return m.slot }

// AdvanceSlot moves to the next time slot (the testbed rotates the
// interference pattern this way).
func (m *Medium) AdvanceSlot() { m.slot++ }

// SetSlot jumps to an absolute slot number.
func (m *Medium) SetSlot(s int) { m.slot = s }

// Broadcast transmits one unreliable frame of the given size from tx.
// It returns, for every node, whether the frame was received. The
// transmitter always "receives" its own frame. Bits are added to the
// transmitted-bits accounting.
func (m *Medium) Broadcast(tx NodeID, bits int) []bool {
	m.bitsSent += int64(bits)
	m.framesSent++
	out := make([]bool, m.nodes)
	for rx := 0; rx < m.nodes; rx++ {
		if NodeID(rx) == tx {
			out[rx] = true
			continue
		}
		p := m.model.PErase(tx, NodeID(rx), m.slot)
		out[rx] = m.rng.Float64() >= p
	}
	return out
}

// BroadcastReliable transmits a frame that the link layer delivers to
// everyone (acknowledgment + retransmission in the real system). Following
// the paper's conservative model, Eve receives reliable frames too, so no
// reception vector is needed. The bits are charged to the accounting once;
// retransmission overhead is outside the efficiency definition used in §4
// (which counts protocol payload bits), but callers can charge extra via
// ChargeBits if they model ARQ cost explicitly.
func (m *Medium) BroadcastReliable(tx NodeID, bits int) {
	m.bitsSent += int64(bits)
	m.reliableBits += int64(bits)
	m.framesSent++
}

// ChargeBits adds extra transmitted bits to the accounting (e.g. ACK
// frames of a modelled ARQ).
func (m *Medium) ChargeBits(bits int) { m.bitsSent += int64(bits) }

// BitsSent returns the total bits transmitted on the medium so far.
func (m *Medium) BitsSent() int64 { return m.bitsSent }

// FramesSent returns the number of frames transmitted so far.
func (m *Medium) FramesSent() int64 { return m.framesSent }

// ReliableBits returns the bits sent over the reliable control plane.
func (m *Medium) ReliableBits() int64 { return m.reliableBits }

// ResetAccounting zeroes the bit counters (the slot clock is preserved).
func (m *Medium) ResetAccounting() {
	m.bitsSent, m.framesSent, m.reliableBits = 0, 0, 0
}
