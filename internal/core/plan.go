package core

import (
	"repro/internal/matrix"
	"repro/internal/mds"
	"repro/internal/packet"
)

// Plan captures the leader's coding decisions for one round: which
// reception classes contribute y-packets, with what budgets, and the
// Phase-2 redistribution code derived from the per-terminal coverage.
type Plan struct {
	// Classes are the reception classes that received a nonzero budget,
	// in BuildClasses order.
	Classes []Class
	// Budgets[k] is m_T for Classes[k].
	Budgets []int
	// Extractors[k] is the wiretap extractor whose coefficient rows define
	// Classes[k]'s y-packets.
	Extractors []*mds.WiretapExtractor[Sym]
	// Offsets[k] is the global index of Classes[k]'s first y-packet.
	Offsets []int
	// M is the total number of y-packets.
	M int
	// Mi[i] is terminal i's y-packet count M_i (the size of its pair-wise
	// secret with the leader). Mi[leader] == M.
	Mi []int
	// L = min over non-leader terminals of Mi: the group secret size.
	L int
	// Leader is the round's leader terminal.
	Leader int
	// NumX is the number of x-packets the round transmitted.
	NumX int
	// Redist is the Phase-2 code; nil when the round yields no secret.
	Redist *mds.RedistributionCode[Sym]
}

// BuildPlan runs the estimator and assembles the round plan. A plan with
// L == 0 means the round is abandoned after the acknowledgment phase (the
// paper's worst case: some terminal shares nothing with the leader that
// Eve provably missed); no y/z/s messages are sent for such rounds.
//
// BuildPlan runs on a fresh Planner; a caller planning round after round
// should reuse one through Planner.Plan instead.
func BuildPlan(ctx *EstimatorContext, est Estimator) *Plan {
	return new(Planner).build(ctx, est)
}

// TerminalYIndices returns the global indices of the y-packets terminal i
// can reconstruct directly from its received x-packets.
func (p *Plan) TerminalYIndices(i int) []int {
	var out []int
	for k, cl := range p.Classes {
		if cl.HasMember(i) || i == p.Leader {
			for r := 0; r < p.Budgets[k]; r++ {
				out = append(out, p.Offsets[k]+r)
			}
		}
	}
	return out
}

// YOverX composes the y-packet definitions down to the x-packet source
// space: an M x NumX matrix whose row j gives y_j as a combination of the
// round's x-packets. Eve's tracker and the secrecy certificate work in
// this space.
func (p *Plan) YOverX() *matrix.Matrix[Sym] {
	f := Field()
	m := matrix.New(f, p.M, p.NumX)
	for k, cl := range p.Classes {
		coeffs := p.Extractors[k].Coeffs()
		for r := 0; r < coeffs.Rows(); r++ {
			dst := m.Row(p.Offsets[k] + r)
			for c, id := range cl.IDs {
				dst[int(id)] = coeffs.At(r, c)
			}
		}
	}
	return m
}

// receivedSet builds the full ID set 0..n-1 (the leader's own view).
func fullIDSet(n int) *packet.IDSet {
	s := packet.NewIDSet(n)
	for i := 0; i < n; i++ {
		s.Add(packet.ID(i))
	}
	return s
}
