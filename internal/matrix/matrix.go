// Package matrix provides dense matrices over GF(2^8) / GF(2^16) together
// with the Gaussian-elimination routines the protocol needs: rank, inverse,
// multi-RHS solving, and row-space membership (the eavesdropper's attack).
//
// Its matrices are coefficient matrices — Cauchy codes, y-over-x
// compositions, erasure-completion systems — whose rows are a round's
// packet counts long, never payloads: payload rows are combined on their
// wire bytes by gf's AddMulBE16 instead. All row arithmetic goes through
// the gf symbol-row entry points on the portable layer: products combine
// whole rows with AddMulSlices, and Gaussian elimination runs as a panel
// engine (panelEliminate) that retires up to four pivot columns per pass,
// so each target row is updated by one multi-term AddMulSlices call
// instead of one walk per pivot, with no steady-state allocations.
//
// Matrices are row-major and mutable; the elimination routines operate on
// private copies unless the method name says otherwise. All operations
// panic on dimension mismatches (a programming error), and return errors
// for data-dependent failures such as singular systems.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gf"
)

// Matrix is a dense rows x cols matrix over the field f.
type Matrix[E gf.Elem] struct {
	f    *gf.Field[E]
	rows int
	cols int
	d    []E // row-major, len rows*cols
	// piv is the reusable pivot buffer for the panel elimination engine;
	// lazily grown on first elimination and reused after, so steady-state
	// elimination on a reused matrix allocates nothing. Never copied by
	// Clone.
	piv []Pivot
}

// New returns a zero rows x cols matrix over field f.
func New[E gf.Elem](f *gf.Field[E], rows, cols int) *Matrix[E] {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Matrix[E]{f: f, rows: rows, cols: cols, d: make([]E, rows*cols)}
}

// Reuse returns a zero rows x cols matrix over f backed by m's storage: m
// itself, reshaped, when it is non-nil and holds rows*cols entries, and a
// fresh matrix otherwise — one with a quarter's headroom when it replaces
// a matrix m that was too small. A caller that solves a differently shaped
// system every round keeps one matrix and stops reallocating once it has
// grown, even while its largest shape still creeps upward.
func Reuse[E gf.Elem](m *Matrix[E], f *gf.Field[E], rows, cols int) *Matrix[E] {
	if m == nil || rows < 0 || cols < 0 {
		return New(f, rows, cols)
	}
	if n := rows * cols; cap(m.d) < n {
		return &Matrix[E]{f: f, rows: rows, cols: cols, d: make([]E, n, n+n/4)}
	}
	m.f, m.rows, m.cols = f, rows, cols
	m.d = m.d[:rows*cols]
	clear(m.d)
	return m
}

// Zero clears all of m's storage, including any capacity beyond its
// current shape that Reuse keeps for later rounds.
func (m *Matrix[E]) Zero() {
	clear(m.d[:cap(m.d)])
}

// FromRows builds a matrix from the given rows, which must all have equal
// length. The rows are copied.
func FromRows[E gf.Elem](f *gf.Field[E], rows [][]E) *Matrix[E] {
	if len(rows) == 0 {
		return New(f, 0, 0)
	}
	m := New(f, len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("matrix: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity[E gf.Elem](f *gf.Field[E], n int) *Matrix[E] {
	m := New(f, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Field returns the field the matrix is defined over.
func (m *Matrix[E]) Field() *gf.Field[E] { return m.f }

// Rows returns the number of rows.
func (m *Matrix[E]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix[E]) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix[E]) At(i, j int) E { return m.d[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix[E]) Set(i, j int, v E) { m.d[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage, capped at the
// row's end so that an append copies it instead of writing the next row.
func (m *Matrix[E]) Row(i int) []E { return m.d[i*m.cols : (i+1)*m.cols : (i+1)*m.cols] }

// RowViews returns every row as a slice aliasing the matrix storage — the
// form the gf batched kernels (AddMulSlices) consume. Callers combining
// many coefficient rows against the same matrix build the views once and
// loop over AddMulSlices. Mutating a view mutates the matrix.
func (m *Matrix[E]) RowViews() [][]E {
	rows := make([][]E, m.rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// Clone returns a deep copy.
func (m *Matrix[E]) Clone() *Matrix[E] {
	c := New(m.f, m.rows, m.cols)
	copy(c.d, m.d)
	return c
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix[E]) Equal(o *Matrix[E]) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.d {
		if m.d[i] != o.d[i] {
			return false
		}
	}
	return true
}

// Mul returns m * o.
func (m *Matrix[E]) Mul(o *Matrix[E]) *Matrix[E] {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.f, m.rows, o.cols)
	// One batched combination per output row: the kernel layer shares
	// coefficient tables across the terms of a row.
	srcs := o.RowViews()
	for i := 0; i < m.rows; i++ {
		m.f.AddMulSlices(out.Row(i), srcs, m.Row(i))
	}
	return out
}

// MulVec returns m * v for a column vector v of length Cols.
func (m *Matrix[E]) MulVec(v []E) []E {
	if m.cols != len(v) {
		panic("matrix: MulVec length mismatch")
	}
	out := make([]E, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.f.Dot(m.Row(i), v)
	}
	return out
}

// Transpose returns the transpose of m.
func (m *Matrix[E]) Transpose() *Matrix[E] {
	t := New(m.f, m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Stack returns the vertical concatenation [a; b]. Both operands are
// copied; a and b must have the same column count.
func Stack[E gf.Elem](a, b *Matrix[E]) *Matrix[E] {
	if a.cols != b.cols {
		panic("matrix: Stack column mismatch")
	}
	s := New(a.f, a.rows+b.rows, a.cols)
	copy(s.d[:len(a.d)], a.d)
	copy(s.d[len(a.d):], b.d)
	return s
}

// SubRows returns a new matrix consisting of the listed rows of m, in order.
func (m *Matrix[E]) SubRows(idx []int) *Matrix[E] {
	s := New(m.f, len(idx), m.cols)
	for k, i := range idx {
		copy(s.Row(k), m.Row(i))
	}
	return s
}

// SubCols returns a new matrix consisting of the listed columns of m, in order.
func (m *Matrix[E]) SubCols(idx []int) *Matrix[E] {
	s := New(m.f, m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := s.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return s
}

// String renders small matrices for debugging and test failure messages.
func (m *Matrix[E]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d over %s\n", m.rows, m.cols, m.f.Name())
	for i := 0; i < m.rows; i++ {
		fmt.Fprintf(&b, "  %v\n", m.Row(i))
	}
	return b.String()
}

// Errors returned by the elimination routines.
var (
	// ErrSingular is returned when a square system has no unique solution.
	ErrSingular = errors.New("matrix: singular system")
	// ErrInconsistent is returned when an overdetermined system has no
	// solution at all.
	ErrInconsistent = errors.New("matrix: inconsistent system")
	// ErrUnderdetermined is returned when a system has free variables.
	ErrUnderdetermined = errors.New("matrix: underdetermined system")
)

// Rank returns the rank of m. m is not modified.
func (m *Matrix[E]) Rank() int {
	w := m.Clone()
	return w.echelon()
}

// Pivot records one pivot produced by the panel elimination engine: the
// row it ended up in and the column it eliminates.
type Pivot struct{ Row, Col int }

// panelWidth is the number of pivot columns the elimination engine
// retires per pass: the trailing update then presents panelWidth
// (coefficient, pivot-row) terms per target row to one gf.AddMulSlices
// call, so each target row is updated once per panel instead of once per
// pivot column.
const panelWidth = 4

// panelEliminate reduces m in place over its first limitCols columns
// using panels of up to panelWidth pivots and returns the pivots (in
// elimination order, appended to the caller's buffer) plus the product of
// the pivot values (the determinant contribution; callers that don't
// need it ignore it).
//
// Within a panel the engine works lazily: pivot candidates in later
// columns are evaluated as v = a[i][c] ^ Σ_j a[i][colj]·piv_j[c] without
// touching the rows, which selects exactly the pivots (positions and
// values) that eager column-by-column elimination would. Each pivot row,
// once chosen, is made current against the panel, normalized, and
// Jordan-reduced against the other pivot rows, so the panel's pivot rows
// carry an identity pattern on the panel columns. That identity is what
// makes the deferred update correct: a target row's current (stale)
// entries at the panel columns are precisely its combination
// coefficients, and one AddMulSlices call zeroes all panelWidth
// columns at once. jordan selects Gauss-Jordan (eliminate every
// non-pivot row, as Inverse/Solve need) versus forward-only elimination
// (rows below the panel, as rank and determinant need).
func (m *Matrix[E]) panelEliminate(limitCols int, jordan bool, pivots []Pivot) ([]Pivot, E) {
	f := m.f
	det := E(1)
	var (
		pivCols [panelWidth]int
		srcs    [panelWidth][]E
		cs      [panelWidth]E
	)
	r := 0
	c := 0
	for c < limitCols && r < m.rows {
		c0 := c // the panel's first candidate column; all updates run on [c0:]
		k := 0
		for ; c < limitCols && k < panelWidth && r+k < m.rows; c++ {
			// Lazy pivot search in column c over the not-yet-updated rows.
			p := -1
			var pv E
			for i := r + k; i < m.rows; i++ {
				v := m.At(i, c)
				for j := 0; j < k; j++ {
					if w := m.At(i, pivCols[j]); w != 0 {
						v ^= f.Mul(w, m.At(r+j, c))
					}
				}
				if v != 0 {
					p, pv = i, v
					break
				}
			}
			if p < 0 {
				continue // no pivot in this column anywhere below
			}
			m.swapRows(r+k, p)
			row := m.Row(r + k)
			// Bring the new pivot row current against the panel so far.
			for j := 0; j < k; j++ {
				if w := row[pivCols[j]]; w != 0 {
					f.AddMulSlice(row[c0:], m.Row(r + j)[c0:], w)
				}
			}
			det = f.Mul(det, pv)
			f.MulSlice(row[c:], f.Inv(pv))
			// Jordan-reduce the earlier pivot rows against this column,
			// preserving the panel's identity pattern.
			for j := 0; j < k; j++ {
				pr := m.Row(r + j)
				if w := pr[c]; w != 0 {
					f.AddMulSlice(pr[c:], row[c:], w)
				}
			}
			pivCols[k] = c
			pivots = append(pivots, Pivot{Row: r + k, Col: c})
			k++
		}
		if k == 0 {
			break // no pivots remain anywhere
		}
		for j := 0; j < k; j++ {
			srcs[j] = m.Row(r + j)[c0:]
		}
		// Deferred trailing update: one multi-term pass per target
		// row eliminates all k panel columns from it.
		lo := r + k
		if jordan {
			lo = 0
		}
		for i := lo; i < m.rows; i++ {
			if i >= r && i < r+k {
				continue
			}
			row := m.Row(i)
			any := false
			for j := 0; j < k; j++ {
				cs[j] = row[pivCols[j]]
				any = any || cs[j] != 0
			}
			if !any {
				continue
			}
			f.AddMulSlices(row[c0:], srcs[:k], cs[:k])
		}
		r += k
	}
	return pivots, det
}

// echelon reduces the receiver to row echelon form in place (reduced
// within each panel) and returns its rank.
func (m *Matrix[E]) echelon() int {
	pivots, _ := m.panelEliminate(m.cols, false, m.piv[:0])
	m.piv = pivots
	return len(pivots)
}

// GaussJordan reduces m in place over its first limitCols columns with
// the panel elimination engine and returns the pivots in
// elimination order. After it returns, every pivot column holds a unit
// vector (1 at its pivot row), which makes the right-hand columns of an
// augmented system directly readable as solutions. The returned slice
// aliases the matrix's internal pivot buffer and is valid until the next
// elimination on m.
func GaussJordan[E gf.Elem](m *Matrix[E], limitCols int) []Pivot {
	pivots, _ := m.panelEliminate(limitCols, true, m.piv[:0])
	m.piv = pivots
	return pivots
}

func (m *Matrix[E]) swapRows(i, j int) {
	if i == j {
		return
	}
	// Swap through a stack buffer in memmove-sized chunks instead of
	// element by element; row swaps are the only elimination step that
	// cannot go through the gf bulk kernels.
	var buf [256]E
	ri, rj := m.Row(i), m.Row(j)
	for len(ri) > 0 {
		n := copy(buf[:], ri)
		copy(ri[:n], rj[:n])
		copy(rj[:n], buf[:n])
		ri, rj = ri[n:], rj[n:]
	}
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix[E]) Inverse() (*Matrix[E], error) {
	if m.rows != m.cols {
		panic("matrix: Inverse of non-square matrix")
	}
	n := m.rows
	// Panel Gauss-Jordan on the augmented matrix [m | I].
	aug := New(m.f, n, 2*n)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:n], m.Row(i))
		aug.Set(i, n+i, 1)
	}
	if len(GaussJordan(aug, n)) < n {
		return nil, ErrSingular
	}
	inv := New(m.f, n, n)
	for i := 0; i < n; i++ {
		copy(inv.Row(i), aug.Row(i)[n:])
	}
	return inv, nil
}

// Solve finds X with A*X = B, where A is rows x cols with full column rank
// and B has the same row count as A. It returns ErrUnderdetermined if A has
// rank below its column count and ErrInconsistent if no solution exists.
// Neither operand is modified.
func Solve[E gf.Elem](a, b *Matrix[E]) (*Matrix[E], error) {
	if a.rows != b.rows {
		panic("matrix: Solve row mismatch")
	}
	f := a.f
	n, k := a.rows, a.cols
	aug := New(f, n, k+b.cols)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:k], a.Row(i))
		copy(aug.Row(i)[k:], b.Row(i))
	}
	// Panel Gauss-Jordan restricted to the first k columns.
	pivots := GaussJordan(aug, k)
	if len(pivots) < k {
		return nil, ErrUnderdetermined
	}
	// Any leftover row with a nonzero RHS is an inconsistency.
	for i := len(pivots); i < n; i++ {
		for _, v := range aug.Row(i)[k:] {
			if v != 0 {
				return nil, ErrInconsistent
			}
		}
	}
	x := New(f, k, b.cols)
	for _, p := range pivots {
		copy(x.Row(p.Col), aug.Row(p.Row)[k:])
	}
	return x, nil
}

// SolveLeft finds the row vector c with c*A = v, i.e. expresses v as a
// linear combination of the rows of A. This is the eavesdropper's primitive:
// if a secret combination lies in the row space of her knowledge matrix she
// can reproduce its contents. Returns ErrInconsistent when v is not in the
// row space, ErrUnderdetermined when the combination is not unique (the
// caller usually only cares about membership, so any solution would do, but
// we surface the condition instead of picking silently).
func SolveLeft[E gf.Elem](a *Matrix[E], v []E) ([]E, error) {
	if len(v) != a.cols {
		panic("matrix: SolveLeft length mismatch")
	}
	at := a.Transpose()
	rhs := New(a.f, len(v), 1)
	for i, x := range v {
		rhs.Set(i, 0, x)
	}
	x, err := Solve(at, rhs)
	if err != nil {
		return nil, err
	}
	out := make([]E, a.rows)
	for i := range out {
		out[i] = x.At(i, 0)
	}
	return out, nil
}

// InRowSpace reports whether v lies in the row space of a. Unlike
// SolveLeft it treats a non-unique combination as membership.
func InRowSpace[E gf.Elem](a *Matrix[E], v []E) bool {
	if len(v) != a.cols {
		panic("matrix: InRowSpace length mismatch")
	}
	w := New(a.f, a.rows+1, a.cols)
	copy(w.d, a.d)
	copy(w.Row(a.rows), v)
	return w.echelon() == a.Rank()
}

// Det returns the determinant via panel elimination: the product of the
// pivot values the engine selects, which match eager column-by-column
// elimination exactly. In characteristic 2 row swaps do not flip the
// sign, so no parity tracking is needed.
func (m *Matrix[E]) Det() E {
	if m.rows != m.cols {
		panic("matrix: Det of non-square matrix")
	}
	w := m.Clone()
	pivots, det := w.panelEliminate(w.cols, false, w.piv[:0])
	w.piv = pivots
	if len(pivots) < w.cols {
		return 0
	}
	return det
}
