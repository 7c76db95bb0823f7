package mds

import (
	"fmt"
	"slices"

	"repro/internal/gf"
	"repro/internal/matrix"
)

// RedistributionCode implements Phase 2 of the protocol in one object.
//
// Given M y-packets of which terminal T_i can reconstruct M_i >= L, the
// leader draws an invertible M x M Cauchy matrix Q and splits it:
//
//   - the first M-L rows are the z-packet coefficients; the z *contents*
//     Z = Q_z * Y are reliably broadcast so each terminal can complete its
//     missing y-packets (any terminal is short at most M-L packets, and
//     every square submatrix of Q_z is invertible, so its equations always
//     solve);
//   - the last L rows are the s-packet coefficients; only the coefficients
//     are broadcast, and S = Q_s * Y is the group secret.
//
// Because Q is invertible, (Z, S) is a bijection of Y: if the y-packets
// were uniform to Eve, then S remains uniform to Eve even though she
// overhears Z. This is the paper's Phase-2 key point ("redistributes but
// does not increase the secret information").
type RedistributionCode[E gf.Elem] struct {
	f *gf.Field[E]
	m int
	l int
	q *matrix.Matrix[E]
}

// NewRedistributionCode builds the code for M y-packets and a group secret
// of L packets, 0 <= L <= M.
func NewRedistributionCode[E gf.Elem](f *gf.Field[E], m, l int) *RedistributionCode[E] {
	r := new(RedistributionCode[E])
	r.Reset(f, m, l)
	return r
}

// Reset rebuilds r as the code NewRedistributionCode(f, m, l) returns,
// over r's storage for Q (see matrix.CauchyInto).
func (r *RedistributionCode[E]) Reset(f *gf.Field[E], m, l int) {
	if l < 0 || l > m {
		panic(fmt.Sprintf("mds: redistribution L=%d out of range for M=%d", l, m))
	}
	r.f, r.m, r.l, r.q = f, m, l, matrix.CauchyInto(r.q, f, m, m)
}

// M returns the total number of y-packets.
func (r *RedistributionCode[E]) M() int { return r.m }

// L returns the group secret size in packets.
func (r *RedistributionCode[E]) L() int { return r.l }

// ZCoeffs returns the (M-L) x M z-packet coefficient matrix.
func (r *RedistributionCode[E]) ZCoeffs() *matrix.Matrix[E] {
	return r.q.SubRows(seq(0, r.m-r.l))
}

// SCoeffs returns the L x M s-packet coefficient matrix.
func (r *RedistributionCode[E]) SCoeffs() *matrix.Matrix[E] {
	return r.q.SubRows(seq(r.m-r.l, r.m))
}

// EncodeZ computes the z-packet contents from the full y-packet set.
func (r *RedistributionCode[E]) EncodeZ(y [][]E) [][]E {
	if len(y) != r.m {
		panic("mds: EncodeZ y count mismatch")
	}
	return MatrixToRows(r.ZCoeffs().Mul(RowsToMatrix(r.f, y)))
}

// EncodeS computes the s-packet contents (the group secret) from the full
// y-packet set.
func (r *RedistributionCode[E]) EncodeS(y [][]E) [][]E {
	if len(y) != r.m {
		panic("mds: EncodeS y count mismatch")
	}
	return MatrixToRows(r.SCoeffs().Mul(RowsToMatrix(r.f, y)))
}

// Row returns row j of the M x M code matrix Q: rows below M-L are the
// z-packet coefficients, the rest the s-packet coefficients. The slice
// aliases the code and must not be modified; a leader combining y-packets
// passes it straight to the kernel instead of copying Q_z or Q_s out.
func (r *RedistributionCode[E]) Row(j int) []E { return r.q.Row(j) }

// CompleteY recovers the full y-packet set for a terminal that knows the
// y-packets in `known` (index -> payload) plus all z contents. It fails
// with an error if the terminal knows fewer than L y-packets (more unknowns
// than z equations), which the protocol prevents by setting L = min M_i.
// The result aliases the known payloads.
func (r *RedistributionCode[E]) CompleteY(known map[int][]E, z [][]E) ([][]E, error) {
	if len(z) != r.m-r.l {
		return nil, fmt.Errorf("mds: CompleteY expects %d z-packets, got %d", r.m-r.l, len(z))
	}
	coeffs := MatrixToRows(r.ZCoeffs())
	return new(Completion[E]).Complete(r.f, r.m, known, coeffs, z)
}

// Completion solves the general "fill in the missing packets" problem
// from explicit linear equations, over working storage it keeps from one
// call to the next: the terminal side of Phase 2 completes a y-packet set
// every round, and reuses one Completion instead of reallocating the
// augmented system each time. The zero value is ready to use.
//
// The terminal side applies it directly to the coefficient rows it heard
// on the wire, so decoding never assumes the leader used any particular
// matrix construction.
type Completion[E gf.Elem] struct {
	unknown  []int
	knownIdx []int
	knownPay [][]E
	kcs      []E
	aug      *matrix.Matrix[E]
	full     [][]E
}

// Complete fills in the missing packets: the caller knows some of m
// packets (known: index -> payload) and observes extra equations
// eq[j]: coeffs[j] * packets = payloads[j]. It returns the full packet
// set, or an error when the system does not determine the unknowns.
//
// The returned rows alias the known payloads and c's storage; they stay
// valid until the next Complete or Zero on c.
func (c *Completion[E]) Complete(f *gf.Field[E], m int, known map[int][]E, coeffs, payloads [][]E) ([][]E, error) {
	if len(coeffs) != len(payloads) {
		return nil, fmt.Errorf("mds: %d coefficient rows but %d payloads", len(coeffs), len(payloads))
	}
	c.unknown, c.full = c.unknown[:0], c.full[:0]
	for i := 0; i < m; i++ {
		p, ok := known[i]
		if !ok {
			c.unknown = append(c.unknown, i)
		}
		c.full = append(c.full, p)
	}
	u := len(c.unknown)
	if u == 0 {
		return c.full, nil
	}
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("mds: %d unknown packets but no equations", u)
	}
	width := len(payloads[0])
	// Gather the known payloads once; every equation row moves the same
	// set to the right-hand side in one batched kernel call.
	c.knownIdx, c.knownPay = c.knownIdx[:0], c.knownPay[:0]
	for i, payload := range known {
		if len(payload) != width {
			return nil, fmt.Errorf("mds: ragged known payloads")
		}
		c.knownIdx = append(c.knownIdx, i)
		c.knownPay = append(c.knownPay, payload)
	}
	c.kcs = slices.Grow(c.kcs[:0], len(c.knownIdx))[:len(c.knownIdx)]
	// The augmented system [A | b]: A holds the coefficients of the
	// unknowns, b the payloads with the known packets moved across.
	c.aug = matrix.Reuse(c.aug, f, len(coeffs), u+width)
	for j := range coeffs {
		if len(coeffs[j]) != m {
			return nil, fmt.Errorf("mds: equation %d has %d coefficients, want %d", j, len(coeffs[j]), m)
		}
		if len(payloads[j]) != width {
			return nil, fmt.Errorf("mds: ragged equation payloads")
		}
		row := c.aug.Row(j)
		for k, i := range c.unknown {
			row[k] = coeffs[j][i]
		}
		copy(row[u:], payloads[j])
		for t, i := range c.knownIdx {
			c.kcs[t] = coeffs[j][i]
		}
		f.AddMulSlices(row[u:], c.knownPay, c.kcs)
	}
	pivots := matrix.GaussJordan(c.aug, u)
	if len(pivots) < u {
		return nil, fmt.Errorf("mds: complete: %w", matrix.ErrUnderdetermined)
	}
	// Any leftover row with a nonzero right-hand side is an inconsistency.
	for i := len(pivots); i < len(coeffs); i++ {
		for _, v := range c.aug.Row(i)[u:] {
			if v != 0 {
				return nil, fmt.Errorf("mds: complete: %w", matrix.ErrInconsistent)
			}
		}
	}
	for _, p := range pivots {
		c.full[c.unknown[p.Col]] = c.aug.Row(p.Row)[u:]
	}
	return c.full, nil
}

// Zero clears the solved packets c holds.
func (c *Completion[E]) Zero() {
	if c.aug != nil {
		c.aug.Zero()
	}
}

// seq returns [lo, hi) as a slice.
func seq(lo, hi int) []int {
	s := make([]int, hi-lo)
	for i := range s {
		s[i] = lo + i
	}
	return s
}
