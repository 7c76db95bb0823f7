package gf

import (
	"fmt"
	"math/rand"
	"testing"
)

// The bulk kernels take different code paths depending on field width,
// coefficient and slice length (word-wide XOR, full product table, split
// product row, log/exp fallback). These property tests pin every path to
// the scalar Mul/Add reference.

// kernelLengths crosses every path boundary: empty, single, odd lengths,
// word-XOR head/tail remainders, and both sides of bulkMin16.
var kernelLengths = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 31, 64, bulkMin16 - 1, bulkMin16, bulkMin16 + 1, 255, 256, 1000}

func testAddMulSlice[E Elem](t *testing.T, f *Field[E], rng *rand.Rand) {
	t.Helper()
	coeffs := []E{0, 1, 2, 3, E(f.Size() - 1)}
	for i := 0; i < 5; i++ {
		coeffs = append(coeffs, E(rng.Intn(f.Size())))
	}
	for _, n := range kernelLengths {
		// dst and src are offset views into larger arrays. Equal offsets
		// exercise the word-XOR path with a misaligned (but co-aligned)
		// head — the case where skipping head elements would corrupt
		// data; unequal offsets exercise the element fallback.
		for _, offs := range [][2]int{{0, 0}, {1, 1}, {3, 3}, {5, 5}, {0, 1}, {2, 7}} {
			do, so := offs[0], offs[1]
			dstBase := make([]E, n+do)
			srcBase := make([]E, n+so)
			dst, src := dstBase[do:], srcBase[so:]
			for i := range src {
				src[i] = E(rng.Intn(f.Size()))
			}
			for i := range dst {
				dst[i] = E(rng.Intn(f.Size()))
			}
			for _, c := range coeffs {
				want := make([]E, n)
				for i, s := range src {
					want[i] = f.Add(dst[i], f.Mul(c, s))
				}
				saved := append([]E(nil), dst...)
				f.AddMulSlice(dst, src, c)
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("%s AddMulSlice(n=%d offs=%v c=%d)[%d] = %d, want %d",
							f.Name(), n, offs, c, i, dst[i], want[i])
					}
				}
				copy(dst, saved)
			}
		}
	}
}

func testMulSlice[E Elem](t *testing.T, f *Field[E], rng *rand.Rand) {
	t.Helper()
	coeffs := []E{0, 1, 2, E(f.Size() - 1), E(rng.Intn(f.Size()))}
	for _, n := range kernelLengths {
		base := make([]E, n)
		for i := range base {
			base[i] = E(rng.Intn(f.Size()))
		}
		for _, c := range coeffs {
			d := append([]E(nil), base...)
			want := make([]E, n)
			for i, v := range base {
				want[i] = f.Mul(c, v)
			}
			f.MulSlice(d, c)
			for i := range want {
				if d[i] != want[i] {
					t.Fatalf("%s MulSlice(n=%d c=%d)[%d] = %d, want %d", f.Name(), n, c, i, d[i], want[i])
				}
			}
		}
	}
}

func TestBulkKernelsMatchScalarGF256(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	testAddMulSlice(t, GF256(), rng)
	testMulSlice(t, GF256(), rng)
}

func TestBulkKernelsMatchScalarGF65536(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	testAddMulSlice(t, GF65536(), rng)
	testMulSlice(t, GF65536(), rng)
}

func TestDotMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(f *Field[uint8]) {
		for _, n := range []int{0, 1, 17, 300} {
			a := make([]uint8, n)
			b := make([]uint8, n)
			for i := range a {
				a[i] = uint8(rng.Intn(f.Size()))
				b[i] = uint8(rng.Intn(f.Size()))
			}
			var want uint8
			for i := range a {
				want = f.Add(want, f.Mul(a[i], b[i]))
			}
			if got := f.Dot(a, b); got != want {
				t.Fatalf("Dot(n=%d) = %d, want %d", n, got, want)
			}
		}
	}
	check(GF256())
}

// TestNibbleTablesMatchScalar pins the nibble-split table layout itself:
// for a spread of coefficients, the table-composed product must equal the
// scalar Mul over every symbol (exhaustive for both fields).
func TestNibbleTablesMatchScalar(t *testing.T) {
	f8 := GF256()
	for _, c := range []uint8{1, 2, 3, 7, 0x53, 0xca, 0xff} {
		var t8 nib8
		f8.buildNib8(&t8, c)
		for s := 0; s < 256; s++ {
			if got, want := mulNib8(&t8, uint8(s)), f8.Mul(c, uint8(s)); got != want {
				t.Fatalf("gf8 nibble tables: %d*%d = %d, want %d", c, s, got, want)
			}
		}
	}
	f16 := GF65536()
	rng := rand.New(rand.NewSource(4))
	coeffs := []uint16{1, 2, 3, 7, 0x100b, 0x8000, 0xffff}
	for i := 0; i < 5; i++ {
		coeffs = append(coeffs, uint16(1+rng.Intn(f16.Size()-1)))
	}
	for _, c := range coeffs {
		var t16 nib16
		f16.buildNib16(&t16, c)
		for s := 0; s < 65536; s++ {
			if got, want := mulNib16(&t16, uint16(s)), f16.Mul(c, uint16(s)); got != want {
				t.Fatalf("gf16 nibble tables: %d*%d = %d, want %d", c, s, got, want)
			}
		}
	}
}

// TestDispatchMatchesGeneric differential-tests the dispatched kernels
// (whatever layer pickKernels selected on this machine) against the
// portable generic layer across lengths, alignments and coefficients —
// the byte-identical guarantee the arch backends must uphold.
func TestDispatchMatchesGeneric(t *testing.T) {
	check := func(t *testing.T, f16 bool) {
		rng := rand.New(rand.NewSource(5))
		run := func(n, do, so int, c int) {
			if f16 {
				diffOne(t, GF65536(), n, do, so, uint16(c), rng)
			} else {
				diffOne(t, GF256(), n, do, so, uint8(c), rng)
			}
		}
		for _, n := range kernelLengths {
			for _, offs := range [][2]int{{0, 0}, {1, 3}, {7, 2}} {
				for _, c := range []int{0, 1, 2, 7, 255, 40000} {
					run(n, offs[0], offs[1], c)
				}
			}
		}
	}
	t.Run("gf8", func(t *testing.T) { check(t, false) })
	t.Run("gf16", func(t *testing.T) { check(t, true) })
}

func diffOne[E Elem](t *testing.T, f *Field[E], n, do, so int, c E, rng *rand.Rand) {
	t.Helper()
	dstBase := make([]E, n+do)
	srcBase := make([]E, n+so)
	dst, src := dstBase[do:], srcBase[so:]
	for i := range src {
		src[i] = E(rng.Intn(f.Size()))
	}
	for i := range dst {
		dst[i] = E(rng.Intn(f.Size()))
	}
	want := append([]E(nil), dst...)
	f.AddMulSliceGeneric(want, src, c)
	got := append([]E(nil), dst...)
	f.AddMulSlice(got, src, c)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s kernel %q AddMulSlice(n=%d offs=%d/%d c=%d)[%d] = %d, generic says %d",
				f.Name(), f.Kernel(), n, do, so, c, i, got[i], want[i])
		}
	}
	mwant := append([]E(nil), dst...)
	f.MulSliceGeneric(mwant, c)
	mgot := append([]E(nil), dst...)
	f.MulSlice(mgot, c)
	for i := range mwant {
		if mgot[i] != mwant[i] {
			t.Fatalf("%s kernel %q MulSlice(n=%d c=%d)[%d] = %d, generic says %d",
				f.Name(), f.Kernel(), n, c, i, mgot[i], mwant[i])
		}
	}
}

// TestBatchedEntryPoints pins AddMulSlices and EliminateRows (including
// their shared nibble-table cache, exercised by repeated and changing
// coefficients) against a loop of generic single-row calls, over both
// fields.
func TestBatchedEntryPoints(t *testing.T) {
	for _, n := range []int{0, 3, 50, 96, 97, 300, 1024} {
		testBatched(t, GF256(), n)
		testBatched(t, GF65536(), n)
	}
}

func testBatched[E Elem](t *testing.T, f *Field[E], n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	const rows = 9
	srcs := make([][]E, rows)
	for j := range srcs {
		srcs[j] = make([]E, n)
		for i := range srcs[j] {
			srcs[j][i] = E(rng.Intn(f.Size()))
		}
	}
	// Repeats, zeros and ones in the coefficient run, so the table cache
	// has to both reuse and invalidate.
	cs := []E{7, 7, 0, 1, 7, 9, 9, E(f.Size() - 1), 7}
	dst := make([]E, n)
	for i := range dst {
		dst[i] = E(rng.Intn(f.Size()))
	}
	want := append([]E(nil), dst...)
	for j := range srcs {
		f.AddMulSliceGeneric(want, srcs[j], cs[j])
	}
	got := append([]E(nil), dst...)
	f.AddMulSlices(got, srcs, cs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s AddMulSlices(n=%d)[%d] = %d, want %d", f.Name(), n, i, got[i], want[i])
		}
	}

	// EliminateRows: same coefficients, dsts are the rows this time.
	dsts := make([][]E, rows)
	wants := make([][]E, rows)
	for j := range dsts {
		dsts[j] = make([]E, n)
		for i := range dsts[j] {
			dsts[j][i] = E(rng.Intn(f.Size()))
		}
		wants[j] = append([]E(nil), dsts[j]...)
		f.AddMulSliceGeneric(wants[j], dst, cs[j])
	}
	f.EliminateRows(dsts, dst, cs)
	for j := range dsts {
		for i := range dsts[j] {
			if dsts[j][i] != wants[j][i] {
				t.Fatalf("%s EliminateRows(n=%d)[%d][%d] = %d, want %d", f.Name(), n, j, i, dsts[j][i], wants[j][i])
			}
		}
	}
}

// fusedLengths crosses every fused-routing boundary: below the fused
// minimums, around the 128-byte strip size, strip+tail splits, and
// multi-strip lengths.
var fusedLengths = []int{0, 1, 31, 63, 64, 65, 95, 96, 97, 127, 128, 129, 191, 192, 255, 256, 257, 383, 384, 1000, 1024, 4096}

// TestFusedMatchesGeneric pins the fused AddMulSlices tiling — arch strip
// kernels, portable fused tails, term grouping (4/2/1), zero and unit
// coefficients, repeated-coefficient table sharing — against a loop of
// generic single-row calls, across source counts and offsets, for both
// fields. It also pins AddMulSlicesPerTerm (the benchmark reference arm)
// to the same result.
func TestFusedMatchesGeneric(t *testing.T) {
	t.Run("gf8", func(t *testing.T) { testFused(t, GF256()) })
	t.Run("gf16", func(t *testing.T) { testFused(t, GF65536()) })
}

func testFused[E Elem](t *testing.T, f *Field[E]) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for _, n := range fusedLengths {
		for rows := 0; rows <= 9; rows++ {
			for _, off := range []int{0, 1, 3} {
				dstBase := make([]E, n+off)
				dst := dstBase[off:]
				for i := range dst {
					dst[i] = E(rng.Intn(f.Size()))
				}
				srcs := make([][]E, rows)
				cs := make([]E, rows)
				for j := range srcs {
					srcs[j] = make([]E, n)
					for i := range srcs[j] {
						srcs[j][i] = E(rng.Intn(f.Size()))
					}
					// A mix of repeats, zeros and ones so passes exercise
					// table sharing, term skipping and identity tables.
					switch j % 4 {
					case 0:
						cs[j] = 7
					case 1:
						cs[j] = E(rng.Intn(f.Size()))
					case 2:
						cs[j] = 0
					default:
						cs[j] = 1
					}
				}
				want := append([]E(nil), dst...)
				for j := range srcs {
					f.AddMulSliceGeneric(want, srcs[j], cs[j])
				}
				got := append([]E(nil), dst...)
				f.AddMulSlices(got, srcs, cs)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s AddMulSlices(n=%d rows=%d off=%d)[%d] = %d, want %d",
							f.Name(), n, rows, off, i, got[i], want[i])
					}
				}
				per := append([]E(nil), dst...)
				f.AddMulSlicesPerTerm(per, srcs, cs)
				for i := range want {
					if per[i] != want[i] {
						t.Fatalf("%s AddMulSlicesPerTerm(n=%d rows=%d off=%d)[%d] = %d, want %d",
							f.Name(), n, rows, off, i, per[i], want[i])
					}
				}
			}
		}
	}
}

// TestFusedPortableLoops pins the portable fused nibble loops (the strip
// kernels' tail path and differential reference for the fused ABI)
// against scalar arithmetic directly.
func TestFusedPortableLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f8 := GF256()
	f16 := GF65536()
	for _, n := range []int{0, 1, 5, 17, 40, 127} {
		var t8 [fusedWidth]nib8
		var t16 [fusedWidth]nib16
		c8 := make([]uint8, fusedWidth)
		c16 := make([]uint16, fusedWidth)
		s8 := make([][]uint8, fusedWidth)
		s16 := make([][]uint16, fusedWidth)
		for j := 0; j < fusedWidth; j++ {
			c8[j] = uint8(1 + rng.Intn(255))
			c16[j] = uint16(1 + rng.Intn(65535))
			f8.buildNib8(&t8[j], c8[j])
			f16.buildNib16(&t16[j], c16[j])
			s8[j] = make([]uint8, n)
			s16[j] = make([]uint16, n)
			for i := 0; i < n; i++ {
				s8[j][i] = uint8(rng.Intn(256))
				s16[j][i] = uint16(rng.Intn(65536))
			}
		}
		d8 := make([]uint8, n)
		d16 := make([]uint16, n)
		for i := 0; i < n; i++ {
			d8[i] = uint8(rng.Intn(256))
			d16[i] = uint16(rng.Intn(65536))
		}
		w8 := append([]uint8(nil), d8...)
		w16 := append([]uint16(nil), d16...)
		for j := 0; j < fusedWidth; j++ {
			for i := 0; i < n; i++ {
				w8[i] ^= f8.Mul(c8[j], s8[j][i])
				w16[i] ^= f16.Mul(c16[j], s16[j][i])
			}
		}
		g8 := append([]uint8(nil), d8...)
		addMulNib8x4(g8, s8[0], s8[1], s8[2], s8[3], &t8)
		g16 := append([]uint16(nil), d16...)
		addMulNib16x4(g16, s16[0], s16[1], s16[2], s16[3], &t16)
		for i := 0; i < n; i++ {
			if g8[i] != w8[i] {
				t.Fatalf("addMulNib8x4(n=%d)[%d] = %d, want %d", n, i, g8[i], w8[i])
			}
			if g16[i] != w16[i] {
				t.Fatalf("addMulNib16x4(n=%d)[%d] = %d, want %d", n, i, g16[i], w16[i])
			}
		}
		g8 = append(g8[:0], d8...)
		addMulNib8x2(g8, s8[0], s8[1], &t8)
		addMulNib8x2(g8[:0:0], nil, nil, &t8) // degenerate empty call
		g16 = append(g16[:0], d16...)
		addMulNib16x2(g16, s16[0], s16[1], &t16)
		for i := 0; i < n; i++ {
			want8 := d8[i] ^ f8.Mul(c8[0], s8[0][i]) ^ f8.Mul(c8[1], s8[1][i])
			want16 := d16[i] ^ f16.Mul(c16[0], s16[0][i]) ^ f16.Mul(c16[1], s16[1][i])
			if g8[i] != want8 {
				t.Fatalf("addMulNib8x2(n=%d)[%d] = %d, want %d", n, i, g8[i], want8)
			}
			if g16[i] != want16 {
				t.Fatalf("addMulNib16x2(n=%d)[%d] = %d, want %d", n, i, g16[i], want16)
			}
		}
	}
}

func benchAddMul[E Elem](b *testing.B, f *Field[E], n int, c E, generic bool) {
	dst := make([]E, n)
	src := make([]E, n)
	rng := rand.New(rand.NewSource(9))
	for i := range src {
		src[i] = E(rng.Intn(f.Size()))
	}
	elemBytes := 1
	if f.Size() > 256 {
		elemBytes = 2
	}
	b.SetBytes(int64(n * elemBytes))
	b.ResetTimer()
	if generic {
		for i := 0; i < b.N; i++ {
			f.AddMulSliceGeneric(dst, src, c)
		}
		return
	}
	for i := 0; i < b.N; i++ {
		f.AddMulSlice(dst, src, c)
	}
}

// BenchmarkAddMulSlice is the kernel benchmark matrix (field x slice
// length x kernel) the CI bench job and cmd/thinair-bench's BENCH_gf.json
// emitter run. The "k=dispatch" arm measures whatever pickKernels selected
// on this machine (Field.Kernel names it); "k=generic" pins the portable
// reference layer so the dispatch speedup is visible in one run.
func BenchmarkAddMulSlice(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384} {
		n := n
		b.Run(fmt.Sprintf("gf8/n%d/k=dispatch", n), func(b *testing.B) { benchAddMul(b, GF256(), n, 7, false) })
		b.Run(fmt.Sprintf("gf8/n%d/k=generic", n), func(b *testing.B) { benchAddMul(b, GF256(), n, 7, true) })
		b.Run(fmt.Sprintf("gf16/n%d/k=dispatch", n), func(b *testing.B) { benchAddMul(b, GF65536(), n, 7, false) })
		b.Run(fmt.Sprintf("gf16/n%d/k=generic", n), func(b *testing.B) { benchAddMul(b, GF65536(), n, 7, true) })
	}
	// The coefficient-1 (pure XOR) arms, common in practice.
	b.Run("gf8/n1024/k=xor", func(b *testing.B) { benchAddMul(b, GF256(), 1024, 1, false) })
	b.Run("gf16/n1024/k=xor", func(b *testing.B) { benchAddMul(b, GF65536(), 1024, 1, false) })
}

func benchAddMulSlices[E Elem](b *testing.B, f *Field[E], n, rows int, perTerm bool) {
	rng := rand.New(rand.NewSource(11))
	dst := make([]E, n)
	srcs := make([][]E, rows)
	cs := make([]E, rows)
	for j := range srcs {
		srcs[j] = make([]E, n)
		for i := range srcs[j] {
			srcs[j][i] = E(rng.Intn(f.Size()))
		}
		cs[j] = E(2 + rng.Intn(f.Size()-2))
	}
	elemBytes := 1
	if f.Size() > 256 {
		elemBytes = 2
	}
	b.SetBytes(int64(n * elemBytes * rows))
	b.ResetTimer()
	if perTerm {
		for i := 0; i < b.N; i++ {
			f.AddMulSlicesPerTerm(dst, srcs, cs)
		}
		return
	}
	for i := 0; i < b.N; i++ {
		f.AddMulSlices(dst, srcs, cs)
	}
}

// BenchmarkAddMulSlices is the fused-kernel benchmark matrix (field x
// slice length x source count x routing arm) the CI bench gate and
// thinair-bench's BENCH_gf.json emitter run. The "r=fused" arm measures
// the fused tiling (multi-source strip kernels where available);
// "r=perterm" pins the per-term dispatch path, so the fusion speedup is
// visible in one run. Throughput is reported over all source bytes
// processed (n * elemBytes * sources per op).
func BenchmarkAddMulSlices(b *testing.B) {
	for _, n := range []int{256, 16384} {
		for _, rows := range []int{1, 2, 4, 8} {
			n, rows := n, rows
			b.Run(fmt.Sprintf("gf8/n%d/s%d/r=fused", n, rows), func(b *testing.B) {
				benchAddMulSlices(b, GF256(), n, rows, false)
			})
			b.Run(fmt.Sprintf("gf8/n%d/s%d/r=perterm", n, rows), func(b *testing.B) {
				benchAddMulSlices(b, GF256(), n, rows, true)
			})
			b.Run(fmt.Sprintf("gf16/n%d/s%d/r=fused", n, rows), func(b *testing.B) {
				benchAddMulSlices(b, GF65536(), n, rows, false)
			})
			b.Run(fmt.Sprintf("gf16/n%d/s%d/r=perterm", n, rows), func(b *testing.B) {
				benchAddMulSlices(b, GF65536(), n, rows, true)
			})
		}
	}
}

// BenchmarkAddMulBE16 runs AddMulBE16 on the fused matrix's GF(2^16)
// shapes, next to AddMulSlices on the same symbols decoded. The "r=wire"
// arm draws random coefficients, so each term builds its tables or
// matrices; "r=wire-cauchy" passes Cauchy entries 1/(rows+j), the
// coefficients the protocol's rounds pass, whose GFNI matrices come from
// the table.
func BenchmarkAddMulBE16(b *testing.B) {
	f := GF65536()
	for _, n := range []int{256, 2048, 16384} {
		for _, rows := range []int{1, 2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(n + rows)))
			dst := make([]uint16, n)
			srcs := make([][]uint16, rows)
			bsrcs := make([][]byte, rows)
			cs := make([]uint16, rows)
			cauchy := make([]uint16, rows)
			for j := range srcs {
				srcs[j] = make([]uint16, n)
				for i := range srcs[j] {
					srcs[j][i] = uint16(rng.Intn(65536))
				}
				bsrcs[j] = Bytes16(srcs[j])
				cs[j] = uint16(2 + rng.Intn(65534))
				cauchy[j] = f.Inv(uint16(rows + j))
			}
			bdst := Bytes16(dst)
			b.Run(fmt.Sprintf("n%d/s%d/r=wire", n, rows), func(b *testing.B) {
				b.SetBytes(int64(2 * n * rows))
				for i := 0; i < b.N; i++ {
					f.AddMulBE16(bdst, bsrcs, cs)
				}
			})
			b.Run(fmt.Sprintf("n%d/s%d/r=wire-cauchy", n, rows), func(b *testing.B) {
				b.SetBytes(int64(2 * n * rows))
				for i := 0; i < b.N; i++ {
					f.AddMulBE16(bdst, bsrcs, cauchy)
				}
			})
			b.Run(fmt.Sprintf("n%d/s%d/r=symbols", n, rows), func(b *testing.B) {
				b.SetBytes(int64(2 * n * rows))
				for i := 0; i < b.N; i++ {
					f.AddMulSlices(dst, srcs, cs)
				}
			})
		}
	}
}
