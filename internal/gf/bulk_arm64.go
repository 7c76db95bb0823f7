//go:build arm64 && !purego

package gf

// pickKernels is the arm64 dispatch point. The nib16 table layout is
// sized for NEON as it is for AVX2: one 16-entry table is one TBL source
// register, so an arm64 backend mirrors the AVX2 strip kernels in
// bulk_amd64.s instruction for instruction (TBL for VPSHUFB, USHR/AND
// for the nibble extraction, UZP/ZIP for the byte-plane split), and
// NEON's 32 vector registers keep two terms' tables resident where AVX2
// has to rebroadcast per strip. No NEON assembly is wired yet — vector
// kernels this repository's CI can only compile, never execute, would be
// an untested-correctness hazard — so dispatch selects the portable
// generic layer. A NEON backend plugs in here like the avx2 one: return
// kernels{name: "neon", accel: true} for GF(2^16) and route the
// archAddMul*BE16 shims below to the NEON routines (strips of
// fusedStripBytes).
func pickKernels(int) kernels { return kernels{name: "generic"} }

// Arch shim stubs; unreachable while pickKernels selects generic.

func archAddMulPlanarBE16(dst, src *byte, strips int, t *nib16) { panic("gf: no arch kernel") }

func archAddMul2xBE16(dst *byte, srcs **byte, strips int, ts *nib16) {
	panic("gf: no arch kernel")
}

func archAddMul4xBE16(dst *byte, srcs **byte, strips int, ts *nib16) {
	panic("gf: no arch kernel")
}

func archAddMulAffineBE16(dst *byte, srcs **byte, ms *mat16, terms, strips int) {
	panic("gf: no arch kernel")
}
