package gf

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// affineByte applies one VGF2P8AFFINEQB block to x the way the
// instruction does: output bit i is the parity of x and block byte 7-i.
func affineByte(block uint64, x byte) byte {
	var out byte
	for i := 0; i < 8; i++ {
		row := byte(block >> (8 * (7 - i)))
		out |= byte(bits.OnesCount8(row&x)&1) << i
	}
	return out
}

// TestMat16MatchesMul checks the four blocks of every coefficient
// against Field.Mul on each source bit, which fixes the linear map.
func TestMat16MatchesMul(t *testing.T) {
	f := GF65536()
	var m mat16
	for c := 1; c < 1<<16; c++ {
		f.buildMat16(&m, uint16(c))
		hh, ll, hl, lh := m[0], m[1], m[2], m[3]
		for k := 0; k < 8; k++ {
			x := byte(1) << k
			lo := f.Mul(uint16(c), uint16(x))    // source bit k of the low byte
			hi := f.Mul(uint16(c), uint16(x)<<8) // source bit k of the high byte
			if affineByte(ll, x) != byte(lo) || affineByte(lh, x) != byte(lo>>8) ||
				affineByte(hl, x) != byte(hi) || affineByte(hh, x) != byte(hi>>8) {
				t.Fatalf("c=%#04x bit %d: blocks ll=%#x lh=%#x hl=%#x hh=%#x disagree with Mul (%#04x, %#04x)",
					c, k, ll, lh, hl, hh, lo, hi)
			}
		}
	}
}

// TestMat16AppliesToWholeSymbols spot-checks whole symbols through the
// blocks, so the byte pairing (which block feeds which product byte) is
// pinned on more than basis vectors.
func TestMat16AppliesToWholeSymbols(t *testing.T) {
	f := GF65536()
	rng := rand.New(rand.NewSource(3))
	var m mat16
	for n := 0; n < 2000; n++ {
		c, s := uint16(1+rng.Intn(65535)), uint16(rng.Intn(65536))
		f.buildMat16(&m, c)
		hi, lo := byte(s>>8), byte(s)
		gotHi := affineByte(m[0], hi) ^ affineByte(m[3], lo)
		gotLo := affineByte(m[1], lo) ^ affineByte(m[2], hi)
		if got, want := uint16(gotHi)<<8|uint16(gotLo), f.Mul(c, s); got != want {
			t.Fatalf("%#04x·%#04x through the blocks = %#04x, want %#04x", c, s, got, want)
		}
	}
}

// TestCauchyMat16Table checks every tabled entry against a fresh build,
// and that mat16For serves both tabled and untabled coefficients.
func TestCauchyMat16Table(t *testing.T) {
	f := GF65536()
	tab := cauchyMat16()
	var want, got mat16
	for v := 1; v < cauchyPoints; v++ {
		c := f.Inv(uint16(v))
		f.buildMat16(&want, c)
		if tab[v] != want {
			t.Fatalf("table entry %d (c=%#04x) = %#x, build gives %#x", v, c, tab[v], want)
		}
	}
	for _, c := range []uint16{1, 2, f.Inv(cauchyPoints - 1), f.Inv(cauchyPoints), 0x8000, 0xffff} {
		f.buildMat16(&want, c)
		f.mat16For(&got, c)
		if got != want {
			t.Fatalf("mat16For(%#04x) = %#x, want %#x", c, got, want)
		}
	}
}

// wireRoute is one way AddMulBE16 can combine terms on this host.
type wireRoute struct {
	name string
	// strips reports whether the route runs strip kernels, which
	// AddMulBE16 only reaches from fusedMin16 symbols on.
	strips bool
	run    func(dst []byte, srcs [][]byte, cs []uint16)
}

// wireRoutes lists every AddMulBE16 route the host can run: the generic
// layer always, the AVX2 kernels and the GFNI affine kernel where the
// CPU has them. Tests call each directly, since dispatch picks only one.
func wireRoutes(f *Field[uint16]) []wireRoute {
	rs := []wireRoute{{name: "generic", run: func(dst []byte, srcs [][]byte, cs []uint16) {
		for j := range srcs {
			f.addMulBE16Generic(dst, srcs[j], cs[j])
		}
	}}}
	if f.kern.accel {
		rs = append(rs, wireRoute{name: "avx2", strips: true, run: f.fusedAddMulBE16})
	}
	if f.kern.gfni {
		rs = append(rs, wireRoute{name: "gfni", strips: true, run: f.affineAddMulBE16})
	}
	return rs
}

// TestWireRoutesMatchSymbols runs each route over term counts on both
// sides of the GFNI kernel's batch, with Cauchy, random, zero and one
// coefficients, and compares with the portable layer on the symbols.
func TestWireRoutesMatchSymbols(t *testing.T) {
	f := GF65536()
	rng := rand.New(rand.NewSource(21))
	for _, rows := range []int{1, 3, affineBatch - 1, affineBatch, affineBatch + 1, 2*affineBatch + 5} {
		for _, n := range []int{fusedMin16, 64, 517, 2048 + 3} {
			dst := make([]uint16, n)
			srcs := make([][]uint16, rows)
			cs := make([]uint16, rows)
			for i := range dst {
				dst[i] = uint16(rng.Intn(1 << 16))
			}
			for j := range srcs {
				srcs[j] = make([]uint16, n)
				for i := range srcs[j] {
					srcs[j][i] = uint16(rng.Intn(1 << 16))
				}
				switch j % 5 {
				case 0, 1:
					cs[j] = f.Inv(uint16(rows + j)) // Cauchy, tabled
				case 2:
					cs[j] = uint16(1 + rng.Intn(65535))
				case 3:
					cs[j] = uint16(j/5) % 2
				case 4:
					cs[j] = cs[0]
				}
			}
			want := append([]uint16(nil), dst...)
			for j := range srcs {
				f.AddMulSlice(want, srcs[j], cs[j])
			}
			bsrcs := make([][]byte, rows)
			for j := range srcs {
				bsrcs[j] = wireOf(srcs[j])
			}
			for _, r := range wireRoutes(f) {
				if r.strips && n < fusedMin16 {
					continue
				}
				got := wireOf(dst)
				r.run(got, bsrcs, cs)
				if !bytes.Equal(got, wireOf(want)) {
					t.Fatalf("route %s (rows=%d n=%d) diverges from the symbol result", r.name, rows, n)
				}
			}
		}
	}
}

// TestGFNIKernelName: the field reports the GFNI path by name, and only
// GF(2^16) has arch kernels: GF(2^8) stays on the portable layer.
func TestGFNIKernelName(t *testing.T) {
	f16, f8 := GF65536(), GF256()
	if f16.kern.gfni != (f16.Kernel() == "gfni") {
		t.Fatalf("GF(2^16) kernel %q with gfni=%v", f16.Kernel(), f16.kern.gfni)
	}
	if f8.kern.accel || f8.Kernel() != "generic" {
		t.Fatalf("GF(2^8) selected an arch kernel (%q)", f8.Kernel())
	}
}

// BenchmarkMat16 prices one coefficient's matrices: a build, and the
// table lookup a Cauchy coefficient takes.
func BenchmarkMat16(b *testing.B) {
	f := GF65536()
	var m mat16
	cs := make([]uint16, 256)
	for i := range cs {
		cs[i] = f.Inv(uint16(200 + i))
	}
	for _, arm := range []string{"build", "cauchy"} {
		b.Run(fmt.Sprintf("r=%s", arm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cs[i%len(cs)]
				if arm == "build" {
					f.buildMat16(&m, c)
				} else {
					f.mat16For(&m, c)
				}
			}
		})
	}
}
