// Package eve models the eavesdropper. Eve is passive: she overhears a
// fraction of the x-packet broadcasts (per the erasure channel) and — by
// the paper's conservative assumption — every reliably broadcast control
// message: reception reports, y/z/s coefficient announcements, and the full
// contents of the z-packets.
//
// Everything Eve knows about a round is linear over the round's x-packet
// payloads, so her knowledge is a matrix over GF(2^16): one unit row per
// overheard x-packet and one composed row per overheard z-packet. The
// package answers the two questions the evaluation needs:
//
//   - UnknownSecretDims: how many of the L secret packets remain
//     information-theoretically unknown to Eve (the rank certificate that
//     defines the paper's reliability metric), and
//   - Reconstruct: Eve's constructive Gaussian-elimination attack, used by
//     the tests to confirm that the rank arithmetic matches what an actual
//     adversary can compute.
package eve

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/matrix"
)

// Sym is the protocol field symbol type (GF(2^16)).
type Sym = uint16

// Knowledge accumulates linear observations over a source space of a fixed
// dimension (the N x-packets of one round).
type Knowledge struct {
	f       *gf.Field[Sym]
	dim     int
	coeffs  [][]Sym  // each row: combination over the source space
	content [][]byte // the corresponding row's payload, in wire order
	width   int      // payload width in bytes, fixed by first row
	// mat caches the observation matrix built from coeffs; invalidated on
	// every new observation. Reconstruct runs once per secret row (the
	// KnownSecretCount loop), so rebuilding A per call was quadratic
	// header-and-copy churn.
	mat *matrix.Matrix[Sym]
}

// NewKnowledge creates an empty knowledge base over dim source packets.
func NewKnowledge(f *gf.Field[Sym], dim int) *Knowledge {
	return &Knowledge{f: f, dim: dim, width: -1}
}

// Dim returns the source-space dimension.
func (k *Knowledge) Dim() int { return k.dim }

// Rows returns the number of recorded observations.
func (k *Knowledge) Rows() int { return len(k.coeffs) }

// AddUnit records that Eve received source packet idx with the given
// payload (a unit row). Payloads are wire-order GF(2^16) rows, as the
// packets carry them, and are copied.
func (k *Knowledge) AddUnit(idx int, payload []byte) {
	if idx < 0 || idx >= k.dim {
		panic(fmt.Sprintf("eve: unit index %d outside dim %d", idx, k.dim))
	}
	row := make([]Sym, k.dim)
	row[idx] = 1
	k.AddCombo(row, payload)
}

// AddCombo records that Eve learned the payload of the linear combination
// described by coeff (over the source space). The payload is copied.
func (k *Knowledge) AddCombo(coeff []Sym, payload []byte) {
	if len(coeff) != k.dim {
		panic("eve: combination length mismatch")
	}
	if k.width < 0 {
		k.width = len(payload)
	} else if len(payload) != k.width {
		panic("eve: inconsistent payload width")
	}
	k.coeffs = append(k.coeffs, append([]Sym(nil), coeff...))
	k.content = append(k.content, append([]byte(nil), payload...))
	k.mat = nil
}

// coeffMatrix returns Eve's observation matrix A (cached between
// observations; callers must not mutate it).
func (k *Knowledge) coeffMatrix() *matrix.Matrix[Sym] {
	if k.mat == nil {
		k.mat = matrix.FromRows(k.f, k.coeffs)
	}
	return k.mat
}

// UnknownSecretDims returns rank([A; S]) - rank(A): the number of secret
// combinations (rows of S, over the source space) about which Eve has zero
// information. If it equals S.Rows() the secret is perfectly hidden.
func (k *Knowledge) UnknownSecretDims(secret *matrix.Matrix[Sym]) int {
	if secret.Cols() != k.dim {
		panic("eve: secret dimension mismatch")
	}
	a := k.coeffMatrix()
	if a.Rows() == 0 {
		return secret.Rank()
	}
	return matrix.Stack(a, secret).Rank() - a.Rank()
}

// Reconstruct attempts Eve's constructive attack on a single secret
// combination: if the combination lies in the row space of her
// observations, she recovers its payload by Gaussian elimination over the
// coefficients and one kernel combination of her payloads. The second
// return reports success.
func (k *Knowledge) Reconstruct(secretCoeff []Sym) ([]byte, bool) {
	if len(secretCoeff) != k.dim {
		panic("eve: secret combination length mismatch")
	}
	a := k.coeffMatrix()
	if a.Rows() == 0 {
		return nil, false
	}
	combo, err := matrix.SolveLeft(a, secretCoeff)
	if err != nil {
		// Not uniquely expressible; check membership the robust way, and
		// if the vector is in the row space find *a* solution by reduced
		// elimination over an augmented system.
		if !matrix.InRowSpace(a, secretCoeff) {
			return nil, false
		}
		combo = k.anySolution(secretCoeff)
		if combo == nil {
			return nil, false
		}
	}
	out := make([]byte, k.width)
	k.f.AddMulBE16(out, k.content, combo)
	return out, true
}

// anySolution finds some x with x*A = v when solutions exist but are not
// unique (A has dependent rows). It runs the panel Gauss-Jordan engine on
// A^T augmented with v and reads the particular solution with free
// variables at zero straight off the pivot rows.
func (k *Knowledge) anySolution(v []Sym) []Sym {
	f := k.f
	at := k.coeffMatrix().Transpose() // dim x rows
	n, m := at.Rows(), at.Cols()
	aug := matrix.New(f, n, m+1)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:m], at.Row(i))
		aug.Set(i, m, v[i])
	}
	pivots := matrix.GaussJordan(aug, m)
	// Inconsistent?
	for i := len(pivots); i < n; i++ {
		if aug.At(i, m) != 0 {
			return nil
		}
	}
	x := make([]Sym, m)
	for _, p := range pivots {
		x[p.Col] = aug.At(p.Row, m)
	}
	return x
}

// KnownSecretCount returns how many of the secret rows Eve can actually
// reconstruct constructively. For consistency with the rank certificate:
// S.Rows() - UnknownSecretDims(S) counts *dimensions*, while this method
// counts reconstructable rows; the two agree when the secret rows are
// linearly independent and either all or none lie in Eve's span, and the
// tests cross-check both views.
func (k *Knowledge) KnownSecretCount(secret *matrix.Matrix[Sym]) int {
	n := 0
	for i := 0; i < secret.Rows(); i++ {
		row := make([]Sym, secret.Cols())
		copy(row, secret.Row(i))
		if _, ok := k.Reconstruct(row); ok {
			n++
		}
	}
	return n
}
