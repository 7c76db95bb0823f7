//go:build amd64 && !purego

package packet

import "repro/internal/cpuid"

// useBlock16 is whether refill runs block16: where the CPU has AVX-512F
// and the OS saves ZMM and opmask state. Elsewhere it runs four SSE2
// block calls.
var useBlock16 = cpuid.AVX512F()

// blockKernel names the kernel block runs, for test logs.
const blockKernel = "sse2"

// block16 writes one refill of seed's stream into buf: the bytes of the
// four block calls with counters 0, 4, 8 and 12, computed as 16 lanes of
// the AVX-512 registers in one call (refill16_amd64.s).
//
//go:noescape
func block16(seed *[4]uint64, buf *[refillWords]uint64)
