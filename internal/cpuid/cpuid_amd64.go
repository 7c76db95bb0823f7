//go:build amd64 && !purego

package cpuid

var avx2, gfni, avx512f = probe()

func probe() (avx2, gfni, avx512f bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false, false, false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false, false, false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state
		return false, false, false
	}
	_, b, c, _ := cpuidex(7, 0)
	avx2 = b&(1<<5) != 0
	gfni = avx2 && c&(1<<8) != 0
	avx512f = xcr0&0xe6 == 0xe6 && b&(1<<16) != 0 // opmask, ZMM_Hi256, Hi16_ZMM
	return avx2, gfni, avx512f
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
