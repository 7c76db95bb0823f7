//go:build purego || (!amd64 && !arm64)

package gf

// pickKernels on platforms without an accelerated backend — or on any
// platform when built with the `purego` tag, the escape hatch for
// debugging a suspected kernel miscompare or for auditing exactly the code
// that runs — selects no block kernels. The routing layer then stays on
// the portable generic paths: the full product table for GF(2^8), split
// product rows for GF(2^16), and per-term passes for the batched entry
// points.
func pickKernels(int) kernels { return kernels{name: "generic"} }

// The arch shim stubs below exist so the portable routing layer links on
// every build; kernels.accel is always false here, so they are
// unreachable.

func archAddMul8(dst, src *uint8, blocks int, t *nib8)    { panic("gf: no arch kernel") }
func archMul8(dst, src *uint8, blocks int, t *nib8)       { panic("gf: no arch kernel") }
func archAddMul16(dst, src *uint16, blocks int, t *nib16) { panic("gf: no arch kernel") }
func archMul16(dst, src *uint16, blocks int, t *nib16)    { panic("gf: no arch kernel") }

const planar16 = false

func archAddMulPlanar16(dst, src *uint16, strips int, t *nib16) { panic("gf: no arch kernel") }

func archAddMul2x8(dst *uint8, srcs **uint8, strips int, ts *nib8) {
	panic("gf: no arch kernel")
}

func archAddMul4x8(dst *uint8, srcs **uint8, strips int, ts *nib8) {
	panic("gf: no arch kernel")
}

func archAddMul2x16(dst *uint16, srcs **uint16, strips int, ts *nib16) {
	panic("gf: no arch kernel")
}

func archAddMul4x16(dst *uint16, srcs **uint16, strips int, ts *nib16) {
	panic("gf: no arch kernel")
}

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
