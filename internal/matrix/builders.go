package matrix

import (
	"fmt"

	"repro/internal/gf"
)

// Cauchy returns the rows x cols Cauchy matrix with entry
// C[i][j] = 1 / (a_i + b_j), using the canonical point sets a_i = i and
// b_j = rows + j. Every square submatrix of a Cauchy matrix is nonsingular,
// which is exactly the property the paper's "well-defined constructions"
// need: the y-packet extractor must be secure against *any* erasure pattern
// of the right size, and the z-packet repair must be decodable from *any*
// sufficiently large subset.
//
// The construction needs rows+cols distinct field points, so
// rows+cols <= f.Size(); Cauchy panics otherwise (the protocol sizes its
// rounds to respect this, and defaults to GF(2^16) where the bound is moot).
func Cauchy[E gf.Elem](f *gf.Field[E], rows, cols int) *Matrix[E] {
	return CauchyInto(nil, f, rows, cols)
}

// CauchyInto is Cauchy over m's storage, reshaped as Reuse does: a caller
// that builds a differently shaped Cauchy matrix every round keeps one
// matrix and stops allocating once it has held the largest shape.
func CauchyInto[E gf.Elem](m *Matrix[E], f *gf.Field[E], rows, cols int) *Matrix[E] {
	if rows+cols > f.Size() {
		panic(fmt.Sprintf("matrix: Cauchy %dx%d needs %d distinct points but %s has only %d",
			rows, cols, rows+cols, f.Name(), f.Size()))
	}
	m = Reuse(m, f, rows, cols)
	for i := 0; i < rows; i++ {
		ri := m.Row(i)
		for j := 0; j < cols; j++ {
			ri[j] = f.Inv(E(i) ^ E(rows+j))
		}
	}
	return m
}

// CauchyAt returns the Cauchy matrix for explicit point sets. All points in
// a must be distinct, all points in b must be distinct, and a_i != b_j for
// every pair; CauchyAt panics otherwise.
func CauchyAt[E gf.Elem](f *gf.Field[E], a, b []E) *Matrix[E] {
	seen := make(map[E]bool, len(a)+len(b))
	for _, x := range a {
		if seen[x] {
			panic("matrix: CauchyAt duplicate point")
		}
		seen[x] = true
	}
	for _, x := range b {
		if seen[x] {
			panic("matrix: CauchyAt duplicate point")
		}
		seen[x] = true
	}
	m := New(f, len(a), len(b))
	for i := range a {
		ri := m.Row(i)
		for j := range b {
			ri[j] = f.Inv(a[i] ^ b[j])
		}
	}
	return m
}

// Vandermonde returns the rows x cols Vandermonde matrix V[i][j] = a_i^j
// over distinct evaluation points a_i = i+1 (skipping zero). Any subset of
// cols rows is invertible (polynomial interpolation), which makes
// it a valid MDS *generator*; unlike Cauchy matrices, arbitrary square
// submatrices are NOT guaranteed nonsingular, so Vandermonde is suitable
// for erasure codes but not for the wiretap extractor. It is provided for
// the coding ablation and tests.
func Vandermonde[E gf.Elem](f *gf.Field[E], rows, cols int) *Matrix[E] {
	if rows >= f.Size() {
		panic("matrix: Vandermonde needs rows < field size")
	}
	m := New(f, rows, cols)
	for i := 0; i < rows; i++ {
		x := E(i + 1)
		v := E(1)
		ri := m.Row(i)
		for j := 0; j < cols; j++ {
			ri[j] = v
			v = f.Mul(v, x)
		}
	}
	return m
}
