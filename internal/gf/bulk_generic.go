//go:build purego || (!amd64 && !arm64)

package gf

// pickKernels on platforms without an accelerated backend — or on any
// platform when built with the `purego` tag, the escape hatch for
// debugging a suspected kernel miscompare or for auditing exactly the code
// that runs — selects no strip kernels. Every entry point then stays on
// the portable layer: the full product table for GF(2^8), split product
// rows for GF(2^16), one pass per term.
func pickKernels(int) kernels { return kernels{name: "generic"} }

// The arch shim stubs below exist so the portable routing layer links on
// every build; kernels.accel is always false here, so they are
// unreachable.

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
