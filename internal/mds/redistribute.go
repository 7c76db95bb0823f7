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

// Completion solves the general "fill in the missing packets" problem
// from explicit linear equations over GF(2^16) wire-order rows (each
// symbol a big-endian byte pair, as packets carry them), over working
// storage it keeps from one call to the next: the terminal side of
// Phase 2 completes a y-packet set every round, and reuses one
// Completion instead of reallocating its system each time. The zero
// value is ready to use.
//
// The terminal side applies it directly to the coefficient rows it heard
// on the wire, so decoding never assumes the leader used any particular
// matrix construction.
type Completion struct {
	unknown  []int
	knownIdx []int
	knownPay [][]byte
	kcs      []uint16
	// aug is the coefficient system [A | I]: one row per equation, the
	// unknowns' coefficients then an identity, so elimination records in
	// the right-hand columns how it combined the equations.
	aug *matrix.Matrix[uint16]
	// buf backs the equations' right-hand sides, then the solved rows.
	buf  []byte
	rhs  [][]byte
	full [][]byte
}

// Complete fills in the missing packets: the caller knows some of m
// packets (known: index -> payload) and observes extra equations
// eq[j]: coeffs[j] * packets = payloads[j]. It returns the full packet
// set, or an error when the system does not determine the unknowns or
// contradicts itself. Every payload must have the same even length.
//
// Only the coefficients are eliminated. Each equation's right-hand side
// is its payload with the known packets moved across; elimination over
// [A | I] leaves, in each pivot row's identity columns, the combination
// of right-hand sides that is one unknown packet, so every missing
// packet is one kernel combination of payload rows.
//
// The returned rows alias the known payloads and c's storage; they stay
// valid until the next Complete or Zero on c.
func (c *Completion) Complete(f *gf.Field[uint16], m int, known map[int][]byte, coeffs [][]uint16, payloads [][]byte) ([][]byte, error) {
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
	z := len(coeffs)
	if z == 0 {
		return nil, fmt.Errorf("mds: %d unknown packets but no equations", u)
	}
	width := len(payloads[0])
	if width%2 != 0 {
		return nil, fmt.Errorf("mds: odd payload length %d", width)
	}
	// Gather the known payloads once; every equation moves the same set
	// to its right-hand side in one batched kernel call.
	c.knownIdx, c.knownPay = c.knownIdx[:0], c.knownPay[:0]
	for i, payload := range known {
		if len(payload) != width {
			return nil, fmt.Errorf("mds: ragged known payloads")
		}
		c.knownIdx = append(c.knownIdx, i)
		c.knownPay = append(c.knownPay, payload)
	}
	c.kcs = slices.Grow(c.kcs[:0], len(c.knownIdx))[:len(c.knownIdx)]
	// Rows 0..z-1 of buf are the right-hand sides, rows z..z+u-1 the
	// solved packets.
	if n := (z + u) * width; cap(c.buf) < n {
		clear(c.buf[:cap(c.buf)])
		c.buf = make([]byte, n, n+n/4)
	} else {
		c.buf = c.buf[:n]
	}
	c.aug = matrix.Reuse(c.aug, f, z, u+z)
	c.rhs = c.rhs[:0]
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
		row[u+j] = 1
		for t, i := range c.knownIdx {
			c.kcs[t] = coeffs[j][i]
		}
		b := c.row(j, width)
		copy(b, payloads[j])
		f.AddMulBE16(b, c.knownPay, c.kcs)
		c.rhs = append(c.rhs, b)
	}
	pivots := matrix.GaussJordan(c.aug, u)
	if len(pivots) < u {
		return nil, fmt.Errorf("mds: complete: %w", matrix.ErrUnderdetermined)
	}
	// A leftover row combines the equations into 0 = Σ_j t_j·rhs_j; a
	// nonzero combination is an inconsistency. The first solved row is
	// the scratch for the check.
	for i := len(pivots); i < z; i++ {
		b := c.row(z, width)
		clear(b)
		f.AddMulBE16(b, c.rhs, c.aug.Row(i)[u:])
		if slices.ContainsFunc(b, func(v byte) bool { return v != 0 }) {
			return nil, fmt.Errorf("mds: complete: %w", matrix.ErrInconsistent)
		}
	}
	for k, p := range pivots {
		b := c.row(z+k, width)
		clear(b)
		f.AddMulBE16(b, c.rhs, c.aug.Row(p.Row)[u:])
		c.full[c.unknown[p.Col]] = b
	}
	return c.full, nil
}

// row returns row i of buf, width bytes long.
func (c *Completion) row(i, width int) []byte {
	return c.buf[i*width : (i+1)*width : (i+1)*width]
}

// Zero clears the right-hand sides and solved packets c holds, and its
// coefficient system.
func (c *Completion) Zero() {
	clear(c.buf[:cap(c.buf)])
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
