package gf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The bulk kernels take different code paths depending on field width,
// coefficient and slice length (word-wide XOR, full product table, split
// product row, log/exp fallback, and for wire-order rows the arch strip
// kernels). These property tests pin every path to the scalar Mul/Add
// reference.

// wireOf encodes symbols as a wire-order row: each symbol two bytes,
// high byte first.
func wireOf(s []uint16) []byte {
	out := make([]byte, 2*len(s))
	for i, v := range s {
		binary.BigEndian.PutUint16(out[2*i:], v)
	}
	return out
}

// symbolsOf decodes an even-length wire-order row.
func symbolsOf(b []byte) []uint16 {
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return out
}

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
// scalar Mul over every symbol.
func TestNibbleTablesMatchScalar(t *testing.T) {
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

// TestDispatchMatchesGeneric differential-tests every single-term entry
// point, as dispatched on this machine, against scalar arithmetic across
// lengths, alignments and coefficients: AddMulSlice and MulSlice for
// both fields (always the portable layer), and for GF(2^16) AddMulBE16
// on the same terms in wire order, whose route (gfni, avx2 or generic)
// pickKernels chose — the byte-identical guarantee the arch backends
// must uphold.
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
	want := make([]E, n)
	mwant := make([]E, n)
	for i := range want {
		want[i] = dst[i] ^ f.Mul(c, src[i])
		mwant[i] = f.Mul(c, dst[i])
	}
	got := append([]E(nil), dst...)
	f.AddMulSlice(got, src, c)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s AddMulSlice(n=%d offs=%d/%d c=%d)[%d] = %d, want %d",
				f.Name(), n, do, so, c, i, got[i], want[i])
		}
	}
	mgot := append([]E(nil), dst...)
	f.MulSlice(mgot, c)
	for i := range mwant {
		if mgot[i] != mwant[i] {
			t.Fatalf("%s MulSlice(n=%d c=%d)[%d] = %d, want %d", f.Name(), n, c, i, mgot[i], mwant[i])
		}
	}
	if f16, ok := any(f).(*Field[uint16]); ok {
		// The same term in wire order, at byte offsets (odd ones
		// included) into larger rows.
		d := append(make([]byte, do), wireOf(any(dst).([]uint16))...)[do:]
		s := append(make([]byte, so), wireOf(any(src).([]uint16))...)[so:]
		f16.AddMulBE16(d, [][]byte{s}, []uint16{uint16(c)})
		if !bytes.Equal(d, wireOf(any(want).([]uint16))) {
			t.Fatalf("kernel %q AddMulBE16(n=%d offs=%d/%d c=%d) diverges from scalar",
				f.Kernel(), n, do, so, c)
		}
	}
}

// TestBatchedEntryPoints pins AddMulSlices, and for GF(2^16) AddMulBE16
// on the same terms in wire order (including the AVX2 route's table
// sharing, exercised by repeated and changing coefficients), against a
// loop of single-row calls, over both fields.
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
		f.AddMulSlice(want, srcs[j], cs[j])
	}
	got := append([]E(nil), dst...)
	f.AddMulSlices(got, srcs, cs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s AddMulSlices(n=%d)[%d] = %d, want %d", f.Name(), n, i, got[i], want[i])
		}
	}
	if f16, ok := any(f).(*Field[uint16]); ok {
		checkWire(t, f16, any(dst).([]uint16), any(srcs).([][]uint16), any(cs).([]uint16), any(want).([]uint16))
	}
}

// checkWire runs dst ^= Σ cs[j]·srcs[j] through AddMulBE16 on the rows'
// wire-order bytes and compares with the symbol result want.
func checkWire(t *testing.T, f *Field[uint16], dst []uint16, srcs [][]uint16, cs, want []uint16) {
	t.Helper()
	bsrcs := make([][]byte, len(srcs))
	for j := range srcs {
		bsrcs[j] = wireOf(srcs[j])
	}
	got := wireOf(dst)
	f.AddMulBE16(got, bsrcs, cs)
	if !bytes.Equal(got, wireOf(want)) {
		t.Fatalf("kernel %q AddMulBE16(n=%d rows=%d) diverges from the symbol result", f.Kernel(), len(dst), len(srcs))
	}
}

// fusedLengths crosses every strip-routing boundary: below the strip
// kernels' minimum, around the 128-byte strip size, strip+tail splits,
// and multi-strip lengths.
var fusedLengths = []int{0, 1, 31, 63, 64, 65, 95, 96, 97, 127, 128, 129, 191, 192, 255, 256, 257, 383, 384, 1000, 1024, 4096}

// TestFusedMatchesGeneric pins multi-term combinations — for GF(2^16)
// AddMulBE16's strip passes (term grouping 4/2/1, portable tails, zero
// and unit coefficients, repeated-coefficient table sharing) — against
// a loop of single-row calls, across source counts and offsets, for
// both fields.
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
					f.AddMulSlice(want, srcs[j], cs[j])
				}
				got := append([]E(nil), dst...)
				f.AddMulSlices(got, srcs, cs)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s AddMulSlices(n=%d rows=%d off=%d)[%d] = %d, want %d",
							f.Name(), n, rows, off, i, got[i], want[i])
					}
				}
				if f16, ok := any(f).(*Field[uint16]); ok {
					checkWire(t, f16, any(dst).([]uint16), any(srcs).([][]uint16), any(cs).([]uint16), any(want).([]uint16))
				}
			}
		}
	}
}

func benchAddMul[E Elem](b *testing.B, f *Field[E], n int, c E) {
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
	for i := 0; i < b.N; i++ {
		f.AddMulSlice(dst, src, c)
	}
}

// BenchmarkAddMulSlice is the symbol-row benchmark matrix (field x slice
// length) the CI bench gate runs: AddMulSlice on the portable layer, the
// row arithmetic of the matrix package.
func BenchmarkAddMulSlice(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 16384} {
		n := n
		b.Run(fmt.Sprintf("gf8/n%d/k=generic", n), func(b *testing.B) { benchAddMul(b, GF256(), n, 7) })
		b.Run(fmt.Sprintf("gf16/n%d/k=generic", n), func(b *testing.B) { benchAddMul(b, GF65536(), n, 7) })
	}
	// The coefficient-1 (pure XOR) arms, common in practice.
	b.Run("gf8/n1024/k=xor", func(b *testing.B) { benchAddMul(b, GF256(), 1024, 1) })
	b.Run("gf16/n1024/k=xor", func(b *testing.B) { benchAddMul(b, GF65536(), 1024, 1) })
}

func benchAddMulSlices[E Elem](b *testing.B, f *Field[E], n, rows int) {
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
	for i := 0; i < b.N; i++ {
		f.AddMulSlices(dst, srcs, cs)
	}
}

// BenchmarkAddMulSlices is the multi-term symbol-row matrix (field x
// slice length x source count) on the portable layer. Throughput is
// reported over all source bytes processed (n * elemBytes * sources per
// op).
func BenchmarkAddMulSlices(b *testing.B) {
	for _, n := range []int{256, 16384} {
		for _, rows := range []int{1, 2, 4, 8} {
			n, rows := n, rows
			b.Run(fmt.Sprintf("gf8/n%d/s%d/r=generic", n, rows), func(b *testing.B) {
				benchAddMulSlices(b, GF256(), n, rows)
			})
			b.Run(fmt.Sprintf("gf16/n%d/s%d/r=generic", n, rows), func(b *testing.B) {
				benchAddMulSlices(b, GF65536(), n, rows)
			})
		}
	}
}

// BenchmarkAddMulBE16 runs AddMulBE16, the protocol's payload
// combinations, over n-symbol wire-order rows on the route pickKernels
// chose. The "r=wire" arm draws random coefficients, so each term builds
// its tables or matrices; "r=wire-cauchy" passes Cauchy entries
// 1/(rows+j), the coefficients the protocol's rounds pass, whose GFNI
// matrices come from the table.
func BenchmarkAddMulBE16(b *testing.B) {
	f := GF65536()
	for _, n := range []int{256, 2048, 16384} {
		for _, rows := range []int{1, 2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(n + rows)))
			dst := make([]byte, 2*n)
			srcs := make([][]byte, rows)
			cs := make([]uint16, rows)
			cauchy := make([]uint16, rows)
			for j := range srcs {
				sym := make([]uint16, n)
				for i := range sym {
					sym[i] = uint16(rng.Intn(65536))
				}
				srcs[j] = wireOf(sym)
				cs[j] = uint16(2 + rng.Intn(65534))
				cauchy[j] = f.Inv(uint16(rows + j))
			}
			b.Run(fmt.Sprintf("n%d/s%d/r=wire", n, rows), func(b *testing.B) {
				b.SetBytes(int64(2 * n * rows))
				for i := 0; i < b.N; i++ {
					f.AddMulBE16(dst, srcs, cs)
				}
			})
			b.Run(fmt.Sprintf("n%d/s%d/r=wire-cauchy", n, rows), func(b *testing.B) {
				b.SetBytes(int64(2 * n * rows))
				for i := 0; i < b.N; i++ {
					f.AddMulBE16(dst, srcs, cauchy)
				}
			})
		}
	}
}
