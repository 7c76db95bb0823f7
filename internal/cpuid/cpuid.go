// Package cpuid reports, once per process, which x86 vector extensions
// both the CPU and the OS support, for the packages that pick an
// assembly kernel by them (gf, packet). On other architectures, and
// under the purego tag, every predicate is false.
package cpuid

// AVX2 reports whether the AVX2 kernels can run: CPUID.1:ECX advertises
// OSXSAVE and AVX, XCR0 shows the OS saves XMM and YMM state, and
// CPUID.7.0:EBX advertises AVX2.
func AVX2() bool { return avx2 }

// GFNI reports whether the VEX-encoded GFNI affine instruction runs on
// ymm registers: GFNI (CPUID.7.0:ECX bit 8) on top of AVX2.
func GFNI() bool { return gfni }

// AVX512F reports whether the AVX-512 Foundation kernels can run:
// CPUID.7.0:EBX advertises AVX512F, and XCR0 shows the OS saves opmask
// and all 512 bits of ZMM0–ZMM31 (bits 5, 6 and 7) as well as XMM and
// YMM state (bits 1 and 2).
func AVX512F() bool { return avx512f }
