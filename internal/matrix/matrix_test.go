package matrix

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf"
)

func randomMatrix(f *gf.Field[uint16], rng *rand.Rand, rows, cols int) *Matrix[uint16] {
	m := New(f, rows, cols)
	for i := range m.d {
		m.d[i] = uint16(rng.Intn(f.Size()))
	}
	return m
}

func TestBasicAccessors(t *testing.T) {
	f := gf.GF256()
	m := New(f, 2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %d", m.At(1, 2))
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row does not alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) == 5 {
		t.Fatal("Clone aliases storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Equal(self clone) = false")
	}
	if m.Equal(New(f, 3, 2)) {
		t.Fatal("Equal across shapes = true")
	}
}

func TestFromRowsAndString(t *testing.T) {
	f := gf.GF256()
	m := FromRows(f, [][]uint8{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows contents wrong: %s", m)
	}
	if s := m.String(); s == "" {
		t.Fatal("String empty")
	}
	empty := FromRows(f, nil)
	if empty.Rows() != 0 {
		t.Fatal("FromRows(nil) not empty")
	}
}

func TestMulIdentity(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(f, rng, 7, 5)
	if !Identity(f, 7).Mul(m).Equal(m) {
		t.Fatal("I*m != m")
	}
	if !m.Mul(Identity(f, 5)).Equal(m) {
		t.Fatal("m*I != m")
	}
}

func TestMulAssociativity(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(f, rng, 4, 6)
		b := randomMatrix(f, rng, 6, 3)
		c := randomMatrix(f, rng, 3, 5)
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatalf("trial %d: (ab)c != a(bc)", trial)
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(f, rng, 5, 4)
	v := make([]uint16, 4)
	for i := range v {
		v[i] = uint16(rng.Intn(65536))
	}
	col := New(f, 4, 1)
	for i, x := range v {
		col.Set(i, 0, x)
	}
	want := a.Mul(col)
	got := a.MulVec(v)
	for i := range got {
		if got[i] != want.At(i, 0) {
			t.Fatalf("MulVec[%d] = %d, want %d", i, got[i], want.At(i, 0))
		}
	}
}

func TestTranspose(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(f, rng, 3, 7)
	tt := a.Transpose().Transpose()
	if !tt.Equal(a) {
		t.Fatal("double transpose != original")
	}
	// (AB)^T == B^T A^T
	b := randomMatrix(f, rng, 7, 2)
	if !a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose())) {
		t.Fatal("(AB)^T != B^T A^T")
	}
}

func TestStackSubRowsSubCols(t *testing.T) {
	f := gf.GF256()
	a := FromRows(f, [][]uint8{{1, 2}, {3, 4}})
	b := FromRows(f, [][]uint8{{5, 6}})
	s := Stack(a, b)
	if s.Rows() != 3 || s.At(2, 1) != 6 {
		t.Fatalf("Stack wrong: %s", s)
	}
	sr := s.SubRows([]int{2, 0})
	if sr.At(0, 0) != 5 || sr.At(1, 1) != 2 {
		t.Fatalf("SubRows wrong: %s", sr)
	}
	sc := s.SubCols([]int{1})
	if sc.Cols() != 1 || sc.At(1, 0) != 4 {
		t.Fatalf("SubCols wrong: %s", sc)
	}
}

func TestRank(t *testing.T) {
	f := gf.GF256()
	if got := Identity(f, 4).Rank(); got != 4 {
		t.Fatalf("rank(I4) = %d", got)
	}
	if got := New(f, 3, 5).Rank(); got != 0 {
		t.Fatalf("rank(0) = %d", got)
	}
	// Duplicate and dependent rows.
	m := FromRows(f, [][]uint8{
		{1, 2, 3},
		{1, 2, 3},
		{0, 0, 0},
		{2, 4, 6}, // 2 * row0 in GF(2^8): Mul(2,1)=2, Mul(2,2)=4, Mul(2,3)=6
	})
	if got := m.Rank(); got != 1 {
		t.Fatalf("rank = %d, want 1", got)
	}
	// Rank must not mutate the receiver.
	if m.At(3, 0) != 2 {
		t.Fatal("Rank mutated matrix")
	}
}

func TestRankRandomProductBound(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(f, rng, 6, 3)
		b := randomMatrix(f, rng, 3, 6)
		if r := a.Mul(b).Rank(); r > 3 {
			t.Fatalf("rank(AB) = %d > inner dim 3", r)
		}
	}
}

func TestInverse(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(8) + 1
		a := Cauchy(f, n, n) // always invertible
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !a.Mul(inv).Equal(Identity(f, n)) {
			t.Fatalf("trial %d: a*inv != I", trial)
		}
		if !inv.Mul(a).Equal(Identity(f, n)) {
			t.Fatalf("trial %d: inv*a != I", trial)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	f := gf.GF256()
	m := FromRows(f, [][]uint8{{1, 2}, {1, 2}})
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveSquareAndOverdetermined(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		k := rng.Intn(6) + 1
		extra := rng.Intn(4)
		a := Cauchy(f, k+extra, k) // full column rank (any k rows invertible)
		x := randomMatrix(f, rng, k, 3)
		b := a.Mul(x)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(x) {
			t.Fatalf("trial %d: Solve wrong answer", trial)
		}
	}
}

func TestSolveInconsistent(t *testing.T) {
	f := gf.GF256()
	a := FromRows(f, [][]uint8{{1}, {1}})
	b := FromRows(f, [][]uint8{{1}, {2}})
	if _, err := Solve(a, b); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestSolveUnderdetermined(t *testing.T) {
	f := gf.GF256()
	a := FromRows(f, [][]uint8{{1, 1}})
	b := FromRows(f, [][]uint8{{1}})
	if _, err := Solve(a, b); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("err = %v, want ErrUnderdetermined", err)
	}
}

func TestSolveLeftAndInRowSpace(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(8))
	a := Cauchy(f, 4, 9)
	// v = combination of rows 1 and 3.
	v := make([]uint16, 9)
	f.AddMulSlice(v, a.Row(1), 17)
	f.AddMulSlice(v, a.Row(3), 40000)
	c, err := SolveLeft(a, v)
	if err != nil {
		t.Fatalf("SolveLeft: %v", err)
	}
	if c[1] != 17 || c[3] != 40000 || c[0] != 0 || c[2] != 0 {
		t.Fatalf("SolveLeft coefficients = %v", c)
	}
	if !InRowSpace(a, v) {
		t.Fatal("InRowSpace(v) = false for combination of rows")
	}
	// A random vector is almost surely outside the 4-dim row space of a
	// 9-dim ambient space.
	w := make([]uint16, 9)
	for i := range w {
		w[i] = uint16(rng.Intn(65536))
	}
	if InRowSpace(a, w) {
		t.Fatal("random vector reported in row space (astronomically unlikely)")
	}
	if _, err := SolveLeft(a, w); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("SolveLeft err = %v, want ErrInconsistent", err)
	}
}

func TestCauchySquareSubmatricesInvertible(t *testing.T) {
	// The property the whole protocol rests on: every square submatrix of a
	// Cauchy matrix is nonsingular. Exercise random submatrices of random
	// sizes in both fields.
	rng := rand.New(rand.NewSource(9))
	t.Run("GF256", func(t *testing.T) {
		c := Cauchy(gf.GF256(), 12, 20)
		checkSubmatrices(t, rng, c, 12, 20)
	})
	t.Run("GF65536", func(t *testing.T) {
		c := Cauchy(gf.GF65536(), 30, 50)
		checkSubmatrices(t, rng, c, 30, 50)
	})
}

func checkSubmatrices[E gf.Elem](t *testing.T, rng *rand.Rand, c *Matrix[E], rows, cols int) {
	t.Helper()
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(min(rows, cols)) + 1
		ri := rng.Perm(rows)[:k]
		ci := rng.Perm(cols)[:k]
		sub := c.SubRows(ri).SubCols(ci)
		if r := sub.Rank(); r != k {
			t.Fatalf("trial %d: %dx%d Cauchy submatrix rank %d", trial, k, k, r)
		}
	}
}

func TestCauchyAtValidation(t *testing.T) {
	f := gf.GF256()
	m := CauchyAt(f, []uint8{1, 2}, []uint8{3, 4, 5})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != f.Inv(1^3) {
		t.Fatal("entry formula wrong")
	}
	for _, tc := range [][2][]uint8{
		{{1, 1}, {2}},    // dup in a
		{{1}, {2, 2}},    // dup in b
		{{1, 2}, {2, 3}}, // overlap
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CauchyAt(%v,%v) did not panic", tc[0], tc[1])
				}
			}()
			CauchyAt(f, tc[0], tc[1])
		}()
	}
}

func TestCauchySizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Cauchy did not panic")
		}
	}()
	Cauchy(gf.GF256(), 200, 100)
}

func TestVandermondeAnyRowsInvertible(t *testing.T) {
	f := gf.GF65536()
	v := Vandermonde(f, 10, 4)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		ri := rng.Perm(10)[:4]
		if r := v.SubRows(ri).Rank(); r != 4 {
			t.Fatalf("trial %d: 4 Vandermonde rows rank %d", trial, r)
		}
	}
}

func TestShapePanics(t *testing.T) {
	f := gf.GF256()
	cases := []func(){
		func() { New(f, -1, 2) },
		func() { FromRows(f, [][]uint8{{1, 2}, {1}}) },
		func() { New(f, 2, 2).Mul(New(f, 3, 2)) },
		func() { New(f, 2, 2).MulVec(make([]uint8, 3)) },
		func() { Stack(New(f, 1, 2), New(f, 1, 3)) },
		func() { Identity(f, 2).Mul(Identity(f, 3)) },
		func() { New(f, 2, 3).Inverse() },
		func() { Solve(New(f, 2, 2), New(f, 3, 1)) },
		func() { SolveLeft(New(f, 2, 2), make([]uint8, 3)) },
		func() { InRowSpace(New(f, 2, 2), make([]uint8, 3)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkRank64(b *testing.B) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(f, rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Rank() != 64 {
			b.Fatal("unexpected rank")
		}
	}
}

func BenchmarkCauchyBuild(b *testing.B) {
	f := gf.GF65536()
	for i := 0; i < b.N; i++ {
		Cauchy(f, 32, 96)
	}
}

func TestDetBasics(t *testing.T) {
	f := gf.GF256()
	if got := Identity(f, 4).Det(); got != 1 {
		t.Fatalf("det(I) = %d", got)
	}
	if got := New(f, 3, 3).Det(); got != 0 {
		t.Fatalf("det(0) = %d", got)
	}
	singular := FromRows(f, [][]uint8{{1, 2}, {1, 2}})
	if got := singular.Det(); got != 0 {
		t.Fatalf("det(singular) = %d", got)
	}
	// det is multiplicative.
	rng := rand.New(rand.NewSource(21))
	f16 := gf.GF65536()
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(f16, rng, 5, 5)
		b := randomMatrix(f16, rng, 5, 5)
		if a.Mul(b).Det() != f16.Mul(a.Det(), b.Det()) {
			t.Fatalf("trial %d: det not multiplicative", trial)
		}
	}
}

func TestDetPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(gf.GF256(), 2, 3).Det()
}

func TestCauchyDeterminantClosedForm(t *testing.T) {
	// The classical Cauchy determinant identity, which is WHY every
	// square submatrix is nonsingular (all factors are nonzero for
	// distinct points):
	//   det C = prod_{i<j}(a_j - a_i)(b_j - b_i) / prod_{i,j}(a_i + b_j)
	// In characteristic 2, subtraction is XOR.
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(6)
		// Distinct points, a and b disjoint.
		perm := rng.Perm(1000)
		a := make([]uint16, n)
		b := make([]uint16, n)
		for i := 0; i < n; i++ {
			a[i] = uint16(perm[i] + 1)
			b[i] = uint16(perm[n+i] + 2000)
		}
		c := CauchyAt(f, a, b)
		num := uint16(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				num = f.Mul(num, a[i]^a[j])
				num = f.Mul(num, b[i]^b[j])
			}
		}
		den := uint16(1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				den = f.Mul(den, a[i]^b[j])
			}
		}
		want := f.Div(num, den)
		if got := c.Det(); got != want {
			t.Fatalf("trial %d (n=%d): det = %d, closed form %d", trial, n, got, want)
		}
	}
}

// TestReuseAndZero: Reuse reshapes a matrix in place when its storage
// suffices, returning it zeroed, and allocates otherwise; Zero clears the
// storage beyond the current shape too.
func TestReuseAndZero(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(f, rng, 4, 6)
	r := Reuse(m, f, 3, 5)
	if r != m || r.Rows() != 3 || r.Cols() != 5 || !r.Equal(New(f, 3, 5)) {
		t.Fatalf("Reuse into a large enough matrix: got %dx%d, same=%v", r.Rows(), r.Cols(), r == m)
	}
	if g := Reuse(m, f, 5, 5); g == m || !g.Equal(New(f, 5, 5)) {
		t.Fatal("Reuse past the storage did not allocate a zero matrix")
	}
	if n := Reuse(nil, f, 2, 2); !n.Equal(New(f, 2, 2)) {
		t.Fatal("Reuse(nil) is not a zero matrix")
	}
	full := m.d[:cap(m.d)]
	for i := range full {
		full[i] = 7
	}
	m.Zero()
	for i, v := range full {
		if v != 0 {
			t.Fatalf("Zero left entry %d of the storage", i)
		}
	}
}
