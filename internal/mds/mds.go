// Package mds implements the MDS-code-based constructions referenced in §3
// of the paper (and specified in its technical report): the wiretap-II
// secrecy extractor used to derive y-packets from x-packets, and the
// combined redistribution / privacy-amplification code used to derive
// z-packets and s-packets from y-packets.
//
// All constructions are built from Cauchy matrices, whose defining property
// — every square submatrix is nonsingular — yields simultaneously:
//
//   - wiretap security against ANY erasure pattern of the promised size
//     (not just the average one), and
//   - erasure decodability from ANY sufficiently large received subset.
package mds

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/matrix"
)

// RowsToMatrix packs payload rows (all the same length) into a matrix whose
// i-th row is rows[i]. Rows are copied.
func RowsToMatrix[E gf.Elem](f *gf.Field[E], rows [][]E) *matrix.Matrix[E] {
	return matrix.FromRows(f, rows)
}

// MatrixToRows unpacks a matrix into per-row slices (copies).
func MatrixToRows[E gf.Elem](m *matrix.Matrix[E]) [][]E {
	out := make([][]E, m.Rows())
	for i := range out {
		out[i] = append([]E(nil), m.Row(i)...)
	}
	return out
}

// WiretapExtractor derives m jointly-uniform output packets from c source
// packets, secure against an eavesdropper who misses at least m of the c
// sources. This is Ozarow-Wyner wiretap channel II coset coding in its
// practical form: output = H * sources with H an m x c Cauchy matrix.
//
// Concretely: let U be the set of source indices the eavesdropper missed.
// If |U| >= m, the m x |U| submatrix H[:,U] has full row rank m (any m of
// its columns form an invertible Cauchy square), so conditioned on
// everything the eavesdropper knows the outputs are uniform.
type WiretapExtractor[E gf.Elem] struct {
	f *gf.Field[E]
	h *matrix.Matrix[E]
}

// NewWiretapExtractor builds the extractor for c source packets and budget
// m <= c. It panics if m > c (the budget can never exceed the class size)
// or if the field is too small for the Cauchy construction.
func NewWiretapExtractor[E gf.Elem](f *gf.Field[E], m, c int) *WiretapExtractor[E] {
	w := new(WiretapExtractor[E])
	w.Reset(f, m, c)
	return w
}

// Reset rebuilds w as the extractor NewWiretapExtractor(f, m, c) returns,
// over w's coefficient storage (see matrix.CauchyInto).
func (w *WiretapExtractor[E]) Reset(f *gf.Field[E], m, c int) {
	if m > c {
		panic(fmt.Sprintf("mds: wiretap budget m=%d exceeds class size c=%d", m, c))
	}
	w.f, w.h = f, matrix.CauchyInto(w.h, f, m, c)
}

// Coeffs returns the m x c coefficient matrix H. These coefficients are
// public: the protocol reliably broadcasts them (the paper's "identities of
// the x-packets used to create each y-packet").
func (w *WiretapExtractor[E]) Coeffs() *matrix.Matrix[E] { return w.h }

// Extract computes the m output payloads from the c source payloads.
func (w *WiretapExtractor[E]) Extract(sources [][]E) [][]E {
	if len(sources) != w.h.Cols() {
		panic("mds: Extract source count mismatch")
	}
	return MatrixToRows(w.h.Mul(RowsToMatrix(w.f, sources)))
}

// SecrecyDeficit returns how many of the m outputs an eavesdropper who
// knows exactly the sources in `known` can resolve, as a rank deficit:
// 0 means perfect secrecy, m means the outputs are fully determined.
// This is the certificate checked by tests and used (at session scope) by
// the reliability metric.
func (w *WiretapExtractor[E]) SecrecyDeficit(known []bool) int {
	if len(known) != w.h.Cols() {
		panic("mds: SecrecyDeficit length mismatch")
	}
	var missing []int
	for j, k := range known {
		if !k {
			missing = append(missing, j)
		}
	}
	sub := w.h.SubCols(missing)
	return w.h.Rows() - sub.Rank()
}

// SystematicCode is a classic systematic MDS erasure code with k data
// symbols and r parity symbols: parity = P * data with P an r x k Cauchy
// matrix. Any k of the k+r symbols reconstruct the data.
type SystematicCode[E gf.Elem] struct {
	f *gf.Field[E]
	k int
	r int
	p *matrix.Matrix[E]
}

// NewSystematicCode builds a code with k data and r parity symbols.
func NewSystematicCode[E gf.Elem](f *gf.Field[E], k, r int) *SystematicCode[E] {
	return &SystematicCode[E]{f: f, k: k, r: r, p: matrix.Cauchy(f, r, k)}
}

// K returns the number of data symbols.
func (s *SystematicCode[E]) K() int { return s.k }

// R returns the number of parity symbols.
func (s *SystematicCode[E]) R() int { return s.r }

// Parity returns the r x k parity coefficient matrix.
func (s *SystematicCode[E]) Parity() *matrix.Matrix[E] { return s.p }

// EncodeParity computes the r parity payloads for the k data payloads.
func (s *SystematicCode[E]) EncodeParity(data [][]E) [][]E {
	if len(data) != s.k {
		panic("mds: EncodeParity data count mismatch")
	}
	return MatrixToRows(s.p.Mul(RowsToMatrix(s.f, data)))
}

// Reconstruct recovers all k data payloads from any >= k known symbols.
// known maps symbol index -> payload, where indices 0..k-1 are data symbols
// and k..k+r-1 are parity symbols. It returns an error if fewer than k
// symbols are supplied (the MDS property guarantees success for any k).
func (s *SystematicCode[E]) Reconstruct(known map[int][]E) ([][]E, error) {
	if len(known) < s.k {
		return nil, fmt.Errorf("mds: need %d symbols to reconstruct, have %d", s.k, len(known))
	}
	// Build the coefficient rows of the known symbols over the data space.
	idx := make([]int, 0, len(known))
	for i := range known {
		if i < 0 || i >= s.k+s.r {
			return nil, fmt.Errorf("mds: symbol index %d out of range", i)
		}
		idx = append(idx, i)
	}
	// Deterministic order helps debugging; sort small slice by insertion.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	coeff := matrix.New(s.f, len(idx), s.k)
	var width int
	for _, i := range idx {
		width = len(known[i])
		break
	}
	rhs := matrix.New(s.f, len(idx), width)
	for row, i := range idx {
		if len(known[i]) != width {
			return nil, fmt.Errorf("mds: ragged payloads in Reconstruct")
		}
		if i < s.k {
			coeff.Set(row, i, 1)
		} else {
			copy(coeff.Row(row), s.p.Row(i-s.k))
		}
		copy(rhs.Row(row), known[i])
	}
	x, err := matrix.Solve(coeff, rhs)
	if err != nil {
		return nil, fmt.Errorf("mds: reconstruct: %w", err)
	}
	return MatrixToRows(x), nil
}
