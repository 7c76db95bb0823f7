package matrix

import (
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// The panel elimination engine defers row updates and selects pivots
// lazily; these tests pin it against a naive eager per-column reference
// (scalar arithmetic, immediate updates) — the algorithm the pre-panel
// implementation used — across shapes, fields, and rank-deficient
// inputs, including the engine's observable outputs: rank, pivot
// positions, pivot-value products (Det), inverses and solutions.

// refEliminate is the eager reference: column-by-column, scalar ops,
// immediate updates. Returns pivot positions and the pivot product.
func refEliminate[E gf.Elem](m *Matrix[E], limitCols int, jordan bool) ([]Pivot, E) {
	f := m.f
	det := E(1)
	var pivots []Pivot
	r := 0
	for c := 0; c < limitCols && r < m.rows; c++ {
		p := -1
		for i := r; i < m.rows; i++ {
			if m.At(i, c) != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.swapRows(r, p)
		det = f.Mul(det, m.At(r, c))
		f.MulSlice(m.Row(r)[c:], f.Inv(m.At(r, c)))
		lo := r + 1
		if jordan {
			lo = 0
		}
		for i := lo; i < m.rows; i++ {
			if i == r {
				continue
			}
			if v := m.At(i, c); v != 0 {
				f.AddMulSlice(m.Row(i)[c:], m.Row(r)[c:], v)
			}
		}
		pivots = append(pivots, Pivot{Row: r, Col: c})
		r++
	}
	return pivots, det
}

// randLowRank fills an approximately rank-r matrix: a product of random
// rows x r and r x cols factors.
func randLowRank[E gf.Elem](f *gf.Field[E], rng *rand.Rand, rows, cols, r int) *Matrix[E] {
	a := New(f, rows, r)
	b := New(f, r, cols)
	for i := range a.d {
		a.d[i] = E(rng.Intn(f.Size()))
	}
	for i := range b.d {
		b.d[i] = E(rng.Intn(f.Size()))
	}
	return a.Mul(b)
}

func testPanelAgainstReference[E gf.Elem](t *testing.T, f *gf.Field[E]) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	shapes := [][2]int{{1, 1}, {3, 5}, {5, 3}, {4, 4}, {7, 7}, {9, 13}, {13, 9}, {17, 17}, {33, 40}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		for trial := 0; trial < 6; trial++ {
			var m *Matrix[E]
			switch trial % 3 {
			case 0: // dense random
				m = New(f, rows, cols)
				for i := range m.d {
					m.d[i] = E(rng.Intn(f.Size()))
				}
			case 1: // rank deficient
				r := 1 + rng.Intn(max(1, min(rows, cols)-1))
				m = randLowRank(f, rng, rows, cols, r)
			default: // sparse with zero columns (forces pivot skips)
				m = New(f, rows, cols)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						if j%3 != 1 && rng.Intn(3) == 0 {
							m.Set(i, j, E(rng.Intn(f.Size())))
						}
					}
				}
			}
			for _, jordan := range []bool{false, true} {
				limit := cols
				if trial%2 == 1 && cols > 2 {
					limit = cols - 2
				}
				got := m.Clone()
				gotPiv, gotDet := got.panelEliminate(limit, jordan, nil)
				want := m.Clone()
				wantPiv, wantDet := refEliminate(want, limit, jordan)
				if len(gotPiv) != len(wantPiv) {
					t.Fatalf("%s %dx%d jordan=%v: panel found %d pivots, reference %d",
						f.Name(), rows, cols, jordan, len(gotPiv), len(wantPiv))
				}
				for i := range gotPiv {
					if gotPiv[i] != wantPiv[i] {
						t.Fatalf("%s %dx%d jordan=%v: pivot %d = %v, reference %v",
							f.Name(), rows, cols, jordan, i, gotPiv[i], wantPiv[i])
					}
				}
				if gotDet != wantDet {
					t.Fatalf("%s %dx%d jordan=%v: pivot product %d, reference %d",
						f.Name(), rows, cols, jordan, gotDet, wantDet)
				}
				// In Jordan mode the reduced system is unique given the
				// pivot set, so the full matrix contents must agree.
				if jordan && !got.Equal(want) {
					t.Fatalf("%s %dx%d jordan: panel result differs from reference\n got: %v\nwant: %v",
						f.Name(), rows, cols, got, want)
				}
			}
		}
	}
}

func TestPanelEliminateMatchesReference(t *testing.T) {
	testPanelAgainstReference(t, gf.GF256())
	testPanelAgainstReference(t, gf.GF65536())
}

// TestGaussJordanPivotColumnsUnit pins the exported GaussJordan contract:
// pivot columns end as unit vectors, so augmented right-hand sides are
// directly readable.
func TestGaussJordanPivotColumnsUnit(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(32))
	m := New(f, 9, 14)
	for i := range m.d {
		m.d[i] = uint16(rng.Intn(65536))
	}
	pivots := GaussJordan(m, 9)
	for _, p := range pivots {
		for i := 0; i < m.Rows(); i++ {
			want := uint16(0)
			if i == p.Row {
				want = 1
			}
			if m.At(i, p.Col) != want {
				t.Fatalf("pivot column %d row %d = %d, want %d", p.Col, i, m.At(i, p.Col), want)
			}
		}
	}
}

// TestEliminationSteadyStateAllocs is the zero-allocation gate on the
// elimination hot path: once a matrix has eliminated once (pivot buffer
// grown), re-eliminating fresh contents in the same workspace must not
// allocate — no dsts/cs header churn, no scratch on the heap.
func TestEliminationSteadyStateAllocs(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(33))
	orig := New(f, 24, 160)
	for i := range orig.d {
		orig.d[i] = uint16(rng.Intn(65536))
	}
	w := orig.Clone()
	w.echelon() // warm the pivot buffer
	for _, mode := range []struct {
		name   string
		jordan bool
	}{{"echelon", false}, {"jordan", true}} {
		run := func() {
			copy(w.d, orig.d)
			w.piv, _ = w.panelEliminate(w.cols, mode.jordan, w.piv[:0])
		}
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Errorf("steady-state %s elimination allocates %v times per run, want 0", mode.name, n)
		}
	}
}
