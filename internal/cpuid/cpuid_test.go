package cpuid

import "testing"

// TestPredicates: GFNI is only reported on top of AVX2, and the host's
// features are logged, so a test run says which kernels it exercised.
func TestPredicates(t *testing.T) {
	t.Logf("avx2=%v gfni=%v avx512f=%v", AVX2(), GFNI(), AVX512F())
	if GFNI() && !AVX2() {
		t.Fatal("GFNI reported without AVX2")
	}
}
