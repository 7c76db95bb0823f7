package gf

import (
	"math/rand"
	"testing"
	"unsafe"
)

// Zero-allocation gates for the kernel hot paths. Every matrix
// elimination step and packet combination bottoms out here, so a single
// heap allocation per call (as a function-pointer dispatch causes:
// escape analysis cannot see through an indirect call, so the stack
// tables escape) multiplies into per-round garbage across the
// whole system. The arch shims are direct calls precisely so these gates
// can hold; they must stay at zero on every build, purego included.

func testKernelAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm any lazily built field tables
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Errorf("%s allocates %v times per call, want 0", name, n)
	}
}

func TestKernelPathsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f8, f16 := GF256(), GF65536()

	const n = 1024
	const rows = 5
	d8 := make([]uint8, n)
	d16 := make([]uint16, n)
	s8 := make([][]uint8, rows)
	s16 := make([][]uint16, rows)
	c8 := make([]uint8, rows)
	c16 := make([]uint16, rows)
	for j := 0; j < rows; j++ {
		s8[j] = make([]uint8, n)
		s16[j] = make([]uint16, n)
		for i := 0; i < n; i++ {
			s8[j][i] = uint8(rng.Intn(256))
			s16[j][i] = uint16(rng.Intn(65536))
		}
		c8[j] = uint8(2 + j)
		c16[j] = uint16(40000 + j)
	}

	testKernelAllocs(t, "gf8 AddMulSlice", func() { f8.AddMulSlice(d8, s8[0], 7) })
	testKernelAllocs(t, "gf16 AddMulSlice", func() { f16.AddMulSlice(d16, s16[0], 7) })
	testKernelAllocs(t, "gf8 MulSlice", func() { f8.MulSlice(d8, 7) })
	testKernelAllocs(t, "gf16 MulSlice", func() { f16.MulSlice(d16, 7) })
	testKernelAllocs(t, "gf8 AddMulSlices", func() { f8.AddMulSlices(d8, s8, c8) })
	testKernelAllocs(t, "gf16 AddMulSlices", func() { f16.AddMulSlices(d16, s16, c16) })

	b16 := bytesOf16(d16)
	bs16 := make([][]byte, rows)
	for j := range bs16 {
		bs16[j] = bytesOf16(s16[j])
	}
	testKernelAllocs(t, "gf16 AddMulBE16", func() { f16.AddMulBE16(b16, bs16, c16) })
	tail := trim(bs16, 2*n-6)
	testKernelAllocs(t, "gf16 AddMulBE16 tail", func() { f16.AddMulBE16(b16[:2*n-6], tail, c16) })

	// Short rows stay on the portable layer; they must be clean too.
	testKernelAllocs(t, "gf16 AddMulSlice short", func() { f16.AddMulSlice(d16[:40], s16[0][:40], 7) })
	testKernelAllocs(t, "gf16 AddMulSlices short", func() {
		f16.AddMulSlices(d16[:40], [][]uint16{s16[0][:40], s16[1][:40]}, c16[:2])
	})
	short := trim(bs16, 80)
	testKernelAllocs(t, "gf16 AddMulBE16 short", func() { f16.AddMulBE16(b16[:80], short, c16) })

	// Every strip route this host has, called directly, with Cauchy
	// coefficients (tabled matrices) next to the built ones above.
	cauchy := make([]uint16, rows)
	for j := range cauchy {
		cauchy[j] = f16.Inv(uint16(rows + j))
	}
	for _, r := range wireRoutes(f16) {
		testKernelAllocs(t, "gf16 AddMulBE16 "+r.name, func() { r.run(b16, bs16, c16) })
		testKernelAllocs(t, "gf16 AddMulBE16 "+r.name+" cauchy", func() { r.run(b16, bs16, cauchy) })
		testKernelAllocs(t, "gf16 AddMulBE16 "+r.name+" tail", func() { r.run(b16[:2*n-6], tail, cauchy) })
	}
}

// bytesOf16 views symbols as their in-memory bytes: a wire-order row
// for the allocation gates, whose contents do not matter.
func bytesOf16(s []uint16) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 2*len(s))
}

// trim returns rows cut to length n, in a fresh header slice.
func trim(rows [][]byte, n int) [][]byte {
	out := make([][]byte, len(rows))
	for j, r := range rows {
		out[j] = r[:n]
	}
	return out
}
