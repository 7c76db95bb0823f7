//go:build amd64 && !purego

package gf

// amd64 backend: wire-order GF(2^16) strip kernels (bulk_amd64.s) — the
// GFNI affine kernel where the CPU has GFNI, else three AVX2 kernels
// over the nibble-split tables, whose 128-byte accumulator strip stays
// in registers across 1, 2 or 4 terms.
//
// The arch* functions below are the dispatch shims the portable routing
// layer (wire.go, affine.go) calls directly. Direct calls matter: the
// kernels are declared //go:noescape, and escape analysis only
// propagates that through a static call chain — dispatching through
// function pointers makes every table and scratch argument escape,
// heap-allocating them per call on the hot paths the zero-allocation
// tests pin.

// pickKernels selects the widest kernel this CPU can run for a field of
// the given size. Feature detection is done here once, at field
// construction, rather than per call; the arch shims are only reached
// when accel is true. Only GF(2^16) has kernels: GF(2^8) stays on the
// portable layer.
func pickKernels(size int) kernels {
	if size != 1<<16 || !hasAVX2() {
		return kernels{name: "generic"}
	}
	if hasGFNI() {
		return kernels{name: "gfni", accel: true, gfni: true}
	}
	return kernels{name: "avx2", accel: true}
}

// Strip shims: strips of fusedStripBytes over big-endian rows; srcs
// points at an array of 2 or 4 source pointers, ts at as many
// contiguous nibble tables.

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

// The AVX2 strip kernels: single-source, 2-source and 4-source, each
// over strips*128 wire-order bytes.
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
