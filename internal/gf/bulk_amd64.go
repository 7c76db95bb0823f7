//go:build amd64 && !purego

package gf

// amd64 backend: AVX2 block and strip kernels over the nibble-split
// tables (bulk_amd64.s). Each 32-byte block costs two shuffles for
// GF(2^8) and eight for GF(2^16), against one or two table loads per
// symbol on the generic layer; the fused multi-source kernels keep a
// 128-byte accumulator strip in registers across 2-4 terms.
//
// The arch* functions below are the dispatch shims the portable routing
// layer (bulk.go) calls directly. Direct calls matter: the kernels are
// declared //go:noescape, and escape analysis only propagates that
// through a static call chain — dispatching through function pointers
// (as this layer once did) makes every table and scratch argument
// escape, heap-allocating a nibble cache per call on the hot paths the
// zero-allocation tests now pin.

// pickKernels selects the widest kernel this CPU can run for a field of
// the given size. Feature detection is done here once, at field
// construction, rather than per call; the arch shims are only reached
// when accel is true. A GF(2^16) field on a GFNI host also runs its
// wire-order rows through the affine kernel (affine.go).
func pickKernels(size int) kernels {
	if !hasAVX2() {
		return kernels{name: "generic"}
	}
	if size == 1<<16 && hasGFNI() {
		return kernels{name: "gfni", accel: true, gfni: true}
	}
	return kernels{name: "avx2", accel: true}
}

// Single-source shims: blocks of kernelBlockBytes.

func archAddMul8(dst, src *uint8, blocks int, t *nib8)    { gf8AddMulAVX2(dst, src, blocks, t) }
func archMul8(dst, src *uint8, blocks int, t *nib8)       { gf8MulAVX2(dst, src, blocks, t) }
func archAddMul16(dst, src *uint16, blocks int, t *nib16) { gf16AddMulAVX2(dst, src, blocks, t) }
func archMul16(dst, src *uint16, blocks int, t *nib16)    { gf16MulAVX2(dst, src, blocks, t) }

// planar16 gates the byte-planar single-source GF(2^16) kernel: on amd64
// whole 128-byte strips of AddMul route through archAddMulPlanar16, which
// broadcasts the term's tables once and keeps them resident across every
// strip. Other arches keep the interleaved block kernels.
const planar16 = true

func archAddMulPlanar16(dst, src *uint16, strips int, t *nib16) {
	gf16AddMulPlanarAVX2(dst, src, strips, t)
}

// Wire-order shims: the byte-planar kernels over big-endian rows
// (wire.go), strips of fusedStripBytes.

func archAddMulPlanarBE16(dst, src *byte, strips int, t *nib16) {
	gf16AddMulPlanarBEAVX2(dst, src, strips, t)
}

func archAddMul2xBE16(dst *byte, srcs **byte, strips int, ts *nib16) {
	gf16AddMul2BEAVX2(dst, srcs, strips, ts)
}

func archAddMul4xBE16(dst *byte, srcs **byte, strips int, ts *nib16) {
	gf16AddMul4BEAVX2(dst, srcs, strips, ts)
}

// archAddMulAffineBE16 accumulates 1..affineBatch wire-order terms over
// strips of fusedStripBytes; srcs and ms point at that many source
// pointers and coefficient matrices.
func archAddMulAffineBE16(dst *byte, srcs **byte, ms *mat16, terms, strips int) {
	gf16AddMulBEGFNI(dst, srcs, ms, terms, strips)
}

// Fused multi-source shims: strips of fusedStripBytes; srcs points at an
// array of 2 or 4 source pointers, ts at as many contiguous nibble
// tables.

func archAddMul2x8(dst *uint8, srcs **uint8, strips int, ts *nib8) {
	gf8AddMul2AVX2(dst, srcs, strips, ts)
}

func archAddMul4x8(dst *uint8, srcs **uint8, strips int, ts *nib8) {
	gf8AddMul4AVX2(dst, srcs, strips, ts)
}

func archAddMul2x16(dst *uint16, srcs **uint16, strips int, ts *nib16) {
	gf16AddMul2AVX2(dst, srcs, strips, ts)
}

func archAddMul4x16(dst *uint16, srcs **uint16, strips int, ts *nib16) {
	gf16AddMul4AVX2(dst, srcs, strips, ts)
}

// hasAVX2 reports whether the CPU and OS support the AVX2 kernels:
// CPUID.1:ECX must advertise OSXSAVE and AVX, XCR0 must show the OS saves
// XMM and YMM state, and CPUID.7.0:EBX must advertise AVX2.
func hasAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// hasGFNI reports whether the CPU runs the VEX-encoded GFNI affine
// instruction on ymm registers: GFNI (CPUID.7.0:ECX bit 8) on top of the
// AVX checks hasAVX2 makes, which the caller has already passed.
func hasGFNI() bool {
	_, _, c, _ := cpuidex(7, 0)
	return c&(1<<8) != 0
}

// cpuidex executes CPUID with the given leaf and subleaf.
//
//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended control register describing which
// vector state the OS saves across context switches.
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// The block kernels. Each processes exactly blocks*32 bytes; the routing
// layer in bulk.go guarantees blocks >= 1 and finishes tails portably.
// dst and src may be the same pointer (MulSlice runs in place) but must
// not partially overlap.
//
//go:noescape
func gf8AddMulAVX2(dst, src *uint8, blocks int, t *nib8)

//go:noescape
func gf8MulAVX2(dst, src *uint8, blocks int, t *nib8)

//go:noescape
func gf16AddMulAVX2(dst, src *uint16, blocks int, t *nib16)

//go:noescape
func gf16MulAVX2(dst, src *uint16, blocks int, t *nib16)

// The planar single-source strip kernel: strips*64 words, tables
// broadcast once per call. dst and src must not overlap (AddMul only).
//
//go:noescape
func gf16AddMulPlanarAVX2(dst, src *uint16, strips int, t *nib16)

// The fused strip kernels. Each processes exactly strips*128 bytes of
// the accumulator, reading the same span of every source; srcs and ts
// are arrays of 2 or 4 entries (stack scratch in the routing layer).
//
//go:noescape
func gf8AddMul2AVX2(dst *uint8, srcs **uint8, strips int, ts *nib8)

//go:noescape
func gf8AddMul4AVX2(dst *uint8, srcs **uint8, strips int, ts *nib8)

//go:noescape
func gf16AddMul2AVX2(dst *uint16, srcs **uint16, strips int, ts *nib16)

//go:noescape
func gf16AddMul4AVX2(dst *uint16, srcs **uint16, strips int, ts *nib16)

// The wire-order strip kernels: the planar, 2-source and 4-source
// GF(2^16) kernels above over big-endian rows, strips*128 bytes each.
//
//go:noescape
func gf16AddMulPlanarBEAVX2(dst, src *byte, strips int, t *nib16)

//go:noescape
func gf16AddMul2BEAVX2(dst *byte, srcs **byte, strips int, ts *nib16)

//go:noescape
func gf16AddMul4BEAVX2(dst *byte, srcs **byte, strips int, ts *nib16)

// The GFNI wire-order kernel: strips*128 bytes of dst, each strip held
// in registers across all terms; srcs and ms are arrays of terms entries
// (stack scratch in affineAddMulBE16).
//
//go:noescape
func gf16AddMulBEGFNI(dst *byte, srcs **byte, ms *mat16, terms, strips int)
