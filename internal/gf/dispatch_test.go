package gf

import "testing"

func TestDispatchCountingOffByDefault(t *testing.T) {
	before := ReadDispatchCounts()
	f := GF65536()
	dst := make([]uint16, 256)
	src := make([]uint16, 256)
	f.AddMulSlices(dst, [][]uint16{src}, []uint16{3})
	f.AddMulBE16(make([]byte, 256), [][]byte{make([]byte, 256)}, []uint16{3})
	after := ReadDispatchCounts()
	if after != before {
		t.Fatalf("counters moved while counting disabled: %+v -> %+v", before, after)
	}
}

func TestDispatchCountingCounts(t *testing.T) {
	SetDispatchCounting(true)
	defer SetDispatchCounting(false)
	before := ReadDispatchCounts()
	f := GF65536()
	dst := make([]uint16, 256)
	src := make([]uint16, 256)
	f.AddMulSlices(dst, [][]uint16{src, src}, []uint16{3, 7})
	wire := make([]byte, 2*fusedMin16) // long enough for the strip kernels
	f.AddMulBE16(wire, [][]byte{make([]byte, len(wire))}, []uint16{3})
	after := ReadDispatchCounts()
	if got := after.AddMulSlices - before.AddMulSlices; got != 2 {
		t.Fatalf("batched-call delta = %d, want 2", got)
	}
	// Symbol rows never reach an arch kernel; wire rows do where the
	// field has one.
	want := uint64(1)
	if f.Kernel() == "generic" {
		want = 0
	}
	if got := after.AddMulSlicesFused - before.AddMulSlicesFused; got != want {
		t.Fatalf("kernel %s: fused delta = %d, want %d", f.Kernel(), got, want)
	}
}

// The counting gate must keep the disabled batched path allocation-free,
// like every other dispatch gate in this package.
func TestDispatchGateZeroAlloc(t *testing.T) {
	f := GF65536()
	dst := make([]uint16, 256)
	src := make([]uint16, 256)
	srcs := [][]uint16{src}
	cs := []uint16{3}
	f.AddMulSlices(dst, srcs, cs) // warm tables
	if n := testing.AllocsPerRun(100, func() {
		f.AddMulSlices(dst, srcs, cs)
	}); n != 0 {
		t.Errorf("AddMulSlices with counting off allocates %v times per run", n)
	}
}
