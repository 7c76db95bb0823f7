//go:build amd64 && !purego

package gf

import "repro/internal/cpuid"

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
// the given size, once at field construction rather than per call, from
// the features package cpuid probed at start-up; the arch shims are
// only reached when accel is true. Only GF(2^16) has kernels: GF(2^8)
// stays on the portable layer.
func pickKernels(size int) kernels {
	if size != 1<<16 || !cpuid.AVX2() {
		return kernels{name: "generic"}
	}
	if cpuid.GFNI() {
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
