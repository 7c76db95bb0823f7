package mds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/matrix"
)

func randRows(rng *rand.Rand, n, width int) [][]uint16 {
	rows := make([][]uint16, n)
	for i := range rows {
		rows[i] = make([]uint16, width)
		for j := range rows[i] {
			rows[i][j] = uint16(rng.Intn(65536))
		}
	}
	return rows
}

// wire encodes symbol rows as wire-order rows: each symbol two bytes,
// high byte first.
func wire(rows [][]uint16) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = make([]byte, 2*len(r))
		for j, v := range r {
			binary.BigEndian.PutUint16(out[i][2*j:], v)
		}
	}
	return out
}

// completeY completes a terminal's y-packets from the z-packets of rc, in
// wire order: the terminal side of Phase 2.
func completeY(rc *RedistributionCode[uint16], known map[int][]byte, z [][]byte) ([][]byte, error) {
	return new(Completion).Complete(gf.GF65536(), rc.M(), known, MatrixToRows(rc.ZCoeffs()), z)
}

func TestWiretapPerfectSecrecyForAllQualifyingPatterns(t *testing.T) {
	// Exhaustively check small (c, m): for EVERY erasure pattern where Eve
	// misses >= m sources, the deficit is 0; for patterns missing fewer
	// than m, the deficit is exactly m - missing (Cauchy submatrices have
	// maximal rank, so leakage is never worse than the counting bound).
	f := gf.GF256()
	for c := 1; c <= 8; c++ {
		for m := 1; m <= c; m++ {
			w := NewWiretapExtractor(f, m, c)
			for mask := 0; mask < 1<<c; mask++ {
				known := make([]bool, c)
				missing := 0
				for j := 0; j < c; j++ {
					if mask&(1<<j) != 0 {
						known[j] = true
					} else {
						missing++
					}
				}
				def := w.SecrecyDeficit(known)
				want := 0
				if missing < m {
					want = m - missing
				}
				if def != want {
					t.Fatalf("c=%d m=%d mask=%b: deficit %d, want %d", c, m, mask, def, want)
				}
			}
		}
	}
}

func TestWiretapExtractMatchesCoeffs(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(1))
	w := NewWiretapExtractor(f, 3, 7)
	src := randRows(rng, 7, 10)
	out := w.Extract(src)
	if len(out) != 3 {
		t.Fatalf("got %d outputs", len(out))
	}
	// Recompute row 2 by hand.
	want := make([]uint16, 10)
	for j := 0; j < 7; j++ {
		f.AddMulSlice(want, src[j], w.Coeffs().At(2, j))
	}
	for i := range want {
		if out[2][i] != want[i] {
			t.Fatalf("Extract row 2 mismatch at %d", i)
		}
	}
}

func TestWiretapBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m > c did not panic")
		}
	}()
	NewWiretapExtractor(gf.GF256(), 5, 3)
}

func TestSystematicCodeAnySubsetReconstructs(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(8) + 1
		r := rng.Intn(6)
		code := NewSystematicCode(f, k, r)
		data := randRows(rng, k, 6)
		parity := code.EncodeParity(data)
		if len(parity) != r {
			t.Fatalf("parity count %d, want %d", len(parity), r)
		}
		// Choose a random subset of exactly k symbols out of k+r.
		perm := rng.Perm(k + r)[:k]
		kn := map[int][]uint16{}
		for _, i := range perm {
			if i < k {
				kn[i] = data[i]
			} else {
				kn[i] = parity[i-k]
			}
		}
		got, err := code.Reconstruct(kn)
		if err != nil {
			t.Fatalf("trial %d (k=%d r=%d): %v", trial, k, r, err)
		}
		for i := range data {
			for j := range data[i] {
				if got[i][j] != data[i][j] {
					t.Fatalf("trial %d: data[%d][%d] mismatch", trial, i, j)
				}
			}
		}
	}
}

func TestSystematicCodeTooFewSymbols(t *testing.T) {
	f := gf.GF256()
	code := NewSystematicCode(f, 3, 2)
	data := [][]uint8{{1}, {2}, {3}}
	parity := code.EncodeParity(data)
	kn := map[int][]uint8{0: data[0], 3: parity[0]}
	if _, err := code.Reconstruct(kn); err == nil {
		t.Fatal("expected error with 2 of 3 required symbols")
	}
}

func TestSystematicCodeBadIndex(t *testing.T) {
	f := gf.GF256()
	code := NewSystematicCode(f, 2, 1)
	kn := map[int][]uint8{0: {1}, 5: {2}}
	if _, err := code.Reconstruct(kn); err == nil {
		t.Fatal("expected error for out-of-range symbol index")
	}
}

func TestRedistributionRoundTrip(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		m := rng.Intn(10) + 1
		l := rng.Intn(m + 1)
		rc := NewRedistributionCode(f, m, l)
		y := randRows(rng, m, 5)
		z := rc.EncodeZ(y)
		s := rc.EncodeS(y)
		if len(z) != m-l || len(s) != l {
			t.Fatalf("trial %d: |z|=%d |s|=%d for M=%d L=%d", trial, len(z), len(s), m, l)
		}
		// A terminal knowing a random subset of >= l y-packets completes
		// the full set and derives the same secret.
		wy := wire(y)
		cnt := l + rng.Intn(m-l+1)
		known := map[int][]byte{}
		for _, i := range rng.Perm(m)[:cnt] {
			known[i] = wy[i]
		}
		full, err := completeY(rc, known, wire(z))
		if err != nil {
			t.Fatalf("trial %d (M=%d L=%d known=%d): %v", trial, m, l, cnt, err)
		}
		for i := range wy {
			if !bytes.Equal(full[i], wy[i]) {
				t.Fatalf("trial %d: y[%d] mismatch", trial, i)
			}
		}
		ws := wire(s)
		for i := range ws {
			s2 := make([]byte, len(ws[i]))
			f.AddMulBE16(s2, full, rc.Row(m-l+i))
			if !bytes.Equal(s2, ws[i]) {
				t.Fatalf("trial %d: secret mismatch", trial)
			}
		}
	}
}

func TestRedistributionTooFewKnown(t *testing.T) {
	f := gf.GF65536()
	rc := NewRedistributionCode(f, 4, 2)
	y := [][]uint16{{1}, {2}, {3}, {4}}
	z := rc.EncodeZ(y)
	known := map[int][]byte{1: wire(y)[1]} // knows 1 < L=2
	if _, err := completeY(rc, known, wire(z)); !errors.Is(err, matrix.ErrUnderdetermined) {
		t.Fatalf("terminal knowing fewer than L y-packets: err = %v, want ErrUnderdetermined", err)
	}
}

func TestRedistributionZSJointlyInvertible(t *testing.T) {
	// The Phase-2 secrecy argument: [Qz; Qs] must be invertible so that
	// revealing Z cannot leak anything about S when Y is uniform.
	f := gf.GF65536()
	for _, tc := range []struct{ m, l int }{{1, 0}, {1, 1}, {5, 2}, {8, 8}, {9, 1}} {
		rc := NewRedistributionCode(f, tc.m, tc.l)
		stacked := rc.ZCoeffs()
		q := rc.SCoeffs()
		// Stack and check rank.
		rows := make([][]uint16, 0, tc.m)
		for i := 0; i < stacked.Rows(); i++ {
			rows = append(rows, append([]uint16(nil), stacked.Row(i)...))
		}
		for i := 0; i < q.Rows(); i++ {
			rows = append(rows, append([]uint16(nil), q.Row(i)...))
		}
		if r := RowsToMatrix(f, rows).Rank(); r != tc.m {
			t.Fatalf("M=%d L=%d: stacked rank %d", tc.m, tc.l, r)
		}
	}
}

func TestRedistributionZeroCases(t *testing.T) {
	f := gf.GF256()
	// L = 0: no secret, everything is z.
	rc := NewRedistributionCode(f, 3, 0)
	y := [][]uint8{{1}, {2}, {3}}
	if s := rc.EncodeS(y); len(s) != 0 {
		t.Fatalf("L=0 gave %d s-packets", len(s))
	}
	// L = M: no z needed; a terminal must already know everything.
	rc16 := NewRedistributionCode(gf.GF65536(), 2, 2)
	y16 := wire([][]uint16{{1}, {2}})
	if z := rc16.EncodeZ([][]uint16{{1}, {2}}); len(z) != 0 {
		t.Fatalf("L=M gave %d z-packets", len(z))
	}
	full, err := completeY(rc16, map[int][]byte{0: y16[0], 1: y16[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 {
		t.Fatalf("completion len %d", len(full))
	}
}

func TestRedistributionRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L > M did not panic")
		}
	}()
	NewRedistributionCode(gf.GF256(), 2, 3)
}

func TestEndToEndPipelineSecrecyCertificate(t *testing.T) {
	// A miniature of the whole protocol's linear algebra: x -> y (wiretap
	// per class) -> z/s (redistribution). Verify with explicit rank
	// computations that an Eve who missed enough packets per class learns
	// nothing about s even given all z contents.
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(4))
	width := 4

	// Two classes: class A with 6 x-packets budget 2, class B with 5
	// x-packets budget 2. M = 4 y-packets, say terminal coverage gives L=3.
	xA := randRows(rng, 6, width)
	xB := randRows(rng, 5, width)
	wA := NewWiretapExtractor(f, 2, 6)
	wB := NewWiretapExtractor(f, 2, 5)
	y := append(wA.Extract(xA), wB.Extract(xB)...)
	rc := NewRedistributionCode(f, 4, 3)
	z := rc.EncodeZ(y)
	s := rc.EncodeS(y)

	// Eve missed x-packets A0, A3 (2 of class A) and B1, B2 (2 of class B).
	// Build Eve's knowledge matrix over the 11-dim source space: unit rows
	// for every received x, plus the z rows composed down to x-space.
	type comp struct{ rows [][]uint16 }
	toX := func(coeffY []uint16) []uint16 {
		// y_0..y_1 from class A (cols 0..5), y_2..y_3 from class B (cols 6..10).
		out := make([]uint16, 11)
		for yi, c := range coeffY {
			if c == 0 {
				continue
			}
			if yi < 2 {
				for j := 0; j < 6; j++ {
					out[j] ^= f.Mul(c, wA.Coeffs().At(yi, j))
				}
			} else {
				for j := 0; j < 5; j++ {
					out[6+j] ^= f.Mul(c, wB.Coeffs().At(yi-2, j))
				}
			}
		}
		return out
	}
	var eve comp
	missed := map[int]bool{0: true, 3: true, 6 + 1: true, 6 + 2: true}
	for j := 0; j < 11; j++ {
		if !missed[j] {
			row := make([]uint16, 11)
			row[j] = 1
			eve.rows = append(eve.rows, row)
		}
	}
	zc := rc.ZCoeffs()
	for i := 0; i < zc.Rows(); i++ {
		eve.rows = append(eve.rows, toX(zc.Row(i)))
	}
	sc := rc.SCoeffs()
	var secretRows [][]uint16
	for i := 0; i < sc.Rows(); i++ {
		secretRows = append(secretRows, toX(sc.Row(i)))
	}

	a := RowsToMatrix(f, eve.rows)
	both := RowsToMatrix(f, append(append([][]uint16{}, eve.rows...), secretRows...))
	unknown := both.Rank() - a.Rank()
	if unknown != 3 {
		t.Fatalf("Eve's unknown secret dimensions = %d, want 3 (perfect secrecy)", unknown)
	}
	_ = z
	_ = s
}

// TestCompletionReuse: one Completion reused, dirty, across systems of
// different size, width and erasure pattern solves each exactly, and Zero
// clears the packets it solved.
func TestCompletionReuse(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(8))
	var c Completion
	for trial := 0; trial < 40; trial++ {
		m := rng.Intn(12) + 2
		l := rng.Intn(m-1) + 1
		rc := NewRedistributionCode(f, m, l)
		y := randRows(rng, m, 1+rng.Intn(80))
		wy := wire(y)
		known := map[int][]byte{}
		for _, i := range rng.Perm(m)[:l+rng.Intn(m-l)] {
			known[i] = wy[i]
		}
		full, err := c.Complete(f, m, known, MatrixToRows(rc.ZCoeffs()), wire(rc.EncodeZ(y)))
		if err != nil {
			t.Fatalf("trial %d (M=%d L=%d known=%d): %v", trial, m, l, len(known), err)
		}
		for i := range wy {
			if !bytes.Equal(full[i], wy[i]) {
				t.Fatalf("trial %d: y[%d] mismatch", trial, i)
			}
		}
		if trial == 39 {
			c.Zero()
			for i, row := range full {
				if _, ok := known[i]; !ok && slices.ContainsFunc(row, func(v byte) bool { return v != 0 }) {
					t.Fatalf("solved y[%d] not zeroed", i)
				}
			}
		}
	}
}

// TestCompletionFailurePaths pins Complete's two failures on systems
// that would otherwise solve, with payloads of three strips and a tail
// (the strip kernels, where the host has them) and of under one strip
// (the portable layer):
//   - more equations than unknowns, one payload byte flipped:
//     ErrInconsistent;
//   - one equation short of the unknowns: ErrUnderdetermined.
func TestCompletionFailurePaths(t *testing.T) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(9))
	const m, l = 8, 3
	rc := NewRedistributionCode(f, m, l)
	coeffs := MatrixToRows(rc.ZCoeffs())
	for _, symbols := range []int{3*64 + 5, 40} {
		y := randRows(rng, m, symbols)
		wy := wire(y)
		z := wire(rc.EncodeZ(y))
		// Knowing y0..y5 leaves 2 unknowns against 5 equations.
		known := map[int][]byte{}
		for i := 0; i < 6; i++ {
			known[i] = wy[i]
		}
		var c Completion
		full, err := c.Complete(f, m, known, coeffs, z)
		if err != nil {
			t.Fatalf("%d symbols: consistent system: %v", symbols, err)
		}
		if !bytes.Equal(full[6], wy[6]) || !bytes.Equal(full[7], wy[7]) {
			t.Fatalf("%d symbols: consistent system solved wrong", symbols)
		}
		for _, at := range []int{0, 2*symbols - 1} {
			bad := wire(rc.EncodeZ(y))
			bad[3][at] ^= 0x40
			if _, err := c.Complete(f, m, known, coeffs, bad); !errors.Is(err, matrix.ErrInconsistent) {
				t.Fatalf("%d symbols, z[3][%d] flipped: err = %v, want ErrInconsistent", symbols, at, err)
			}
		}
		// Knowing only y0..y1 leaves 6 unknowns: the 5 equations are one
		// short.
		short := map[int][]byte{0: wy[0], 1: wy[1]}
		if _, err := c.Complete(f, m, short, coeffs, z); !errors.Is(err, matrix.ErrUnderdetermined) {
			t.Fatalf("%d symbols, one equation short: err = %v, want ErrUnderdetermined", symbols, err)
		}
	}
}
