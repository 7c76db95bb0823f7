package gf

import (
	"bytes"
	"testing"
)

// FuzzAddMulSlices differential-tests the fused AddMulSlices tiling —
// term grouping, strip kernels, portable tails, repeated/zero/one
// coefficient handling, table sharing — against a per-row loop of the
// generic layer, over both fields, arbitrary source counts (1..12),
// payloads, coefficients and alignments. The GF(2^16) case also runs
// the same terms through AddMulBE16 on the rows' wire-order bytes, and
// through each of its routes this host has (gfni, avx2, generic).
// Coefficients are derived from the payload bytes with forced
// collisions (every third source repeats the first coefficient, every
// fourth is 0 or 1), so the cache-sharing and skip paths are
// continuously exercised.
//
// CI runs this as corpus replay in the regular test job (including under
// the purego tag) and as a short -fuzz smoke alongside FuzzAddMulSlice.
func FuzzAddMulSlices(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, byte(3), byte(0), byte(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c, 0x11}, 200), byte(5), byte(1), byte(3))
	f.Add(bytes.Repeat([]byte{0xff}, 1500), byte(9), byte(7), byte(2))
	f.Add(bytes.Repeat([]byte{0x01, 0x00}, 257), byte(12), byte(4), byte(6))
	// Wire-order shapes: 9 sources over 3 strips and a 6-byte tail, and
	// 5 sources over 5 strips and one symbol.
	f.Add(bytes.Repeat([]byte{0x5a, 0xc3, 0x01}, 1430), byte(8), byte(3), byte(5))
	f.Add(bytes.Repeat([]byte{0xe1, 0x07}, 2247), byte(4), byte(0), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, nsrc, dstOff, srcOff byte) {
		rows := 1 + int(nsrc%12)
		do, so := int(dstOff%8), int(srcOff%8)
		if len(data) < rows+2 {
			return
		}
		// Split data into one dst chunk and `rows` source chunks of equal
		// length; remaining bytes seed the coefficients.
		chunk := len(data) / (rows + 2)
		coefBytes := data[(rows+1)*chunk:]

		check := func(t *testing.T, f16 bool) {
			t.Helper()
			if f16 {
				n := chunk / 2
				f := GF65536()
				dst := append(make([]uint16, do), Symbols16(data[:n*2])...)[do:]
				srcs := make([][]uint16, rows)
				cs := make([]uint16, rows)
				for j := range srcs {
					srcs[j] = append(make([]uint16, so), Symbols16(data[(j+1)*chunk:(j+1)*chunk+n*2])...)[so:]
					cs[j] = fuzzCoeff16(coefBytes, j)
				}
				want := append([]uint16(nil), dst...)
				for j := range srcs {
					f.AddMulSliceGeneric(want, srcs[j], cs[j])
				}
				got := append([]uint16(nil), dst...)
				f.AddMulSlices(got, srcs, cs)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("gf16 kernel %q AddMulSlices diverges from generic (n=%d rows=%d offs=%d/%d i=%d): got %d want %d",
							f.Kernel(), n, rows, do, so, i, got[i], want[i])
					}
				}
				// Wire order: the same terms over the rows' big-endian
				// bytes, through AddMulBE16 and through its portable layer
				// alone, must be the encoding of the symbol result. The
				// offsets are byte offsets here, odd ones included.
				bdst := append(make([]byte, do), Bytes16(dst)...)[do:]
				bsrcs := make([][]byte, rows)
				for j := range bsrcs {
					bsrcs[j] = append(make([]byte, so), Bytes16(srcs[j])...)[so:]
				}
				wantB := Bytes16(want)
				gotB := append([]byte(nil), bdst...)
				f.AddMulBE16(gotB, bsrcs, cs)
				if !bytes.Equal(gotB, wantB) {
					t.Fatalf("gf16 kernel %q AddMulBE16 diverges from AddMulSlices (n=%d strips=%d rows=%d offs=%d/%d)",
						f.Kernel(), n, 2*n/fusedStripBytes, rows, do, so)
				}
				// Dispatch takes one route; run every route this host has.
				for _, r := range wireRoutes(f) {
					if r.strips && n < fusedMin16 {
						continue
					}
					gotB := append([]byte(nil), bdst...)
					r.run(gotB, bsrcs, cs)
					if !bytes.Equal(gotB, wantB) {
						t.Fatalf("AddMulBE16's %s route diverges from AddMulSlices (n=%d rows=%d offs=%d/%d)", r.name, n, rows, do, so)
					}
				}
				return
			}
			n := chunk
			f := GF256()
			dst := append(make([]uint8, do), data[:n]...)[do:]
			srcs := make([][]uint8, rows)
			cs := make([]uint8, rows)
			for j := range srcs {
				srcs[j] = append(make([]uint8, so), data[(j+1)*chunk:(j+2)*chunk]...)[so:]
				cs[j] = uint8(fuzzCoeff16(coefBytes, j))
			}
			want := append([]uint8(nil), dst...)
			for j := range srcs {
				f.AddMulSliceGeneric(want, srcs[j], cs[j])
			}
			got := append([]uint8(nil), dst...)
			f.AddMulSlices(got, srcs, cs)
			if !bytes.Equal(want, got) {
				t.Fatalf("gf8 kernel %q AddMulSlices diverges from generic (n=%d rows=%d offs=%d/%d)",
					f.Kernel(), n, rows, do, so)
			}
		}
		check(t, false)
		check(t, true)
	})
}

// fuzzCoeff16 derives source j's coefficient from the fuzz input with
// forced repeats and degenerate values.
func fuzzCoeff16(coefBytes []byte, j int) uint16 {
	at := func(k int) uint16 {
		if len(coefBytes) == 0 {
			return 7
		}
		b0 := coefBytes[(2*k)%len(coefBytes)]
		b1 := coefBytes[(2*k+1)%len(coefBytes)]
		return uint16(b0)<<8 | uint16(b1)
	}
	switch {
	case j > 0 && j%3 == 0:
		return at(0) // repeat the first coefficient
	case j%4 == 3:
		return uint16(j/4) % 2 // zero and one terms
	default:
		return at(j)
	}
}

// FuzzAddMulSlice differential-tests the dispatched single-source bulk
// kernels against the portable generic layer over both fields, arbitrary
// payloads, coefficients, and slice alignments. The fuzzer owns the
// search for the length/alignment/coefficient combination the
// hand-written kernelLengths table missed; any divergence between layers
// is a crash.
//
// CI runs this both as a regular test (corpus replay, including under the
// purego tag) and as a short -fuzz smoke in the test job.
func FuzzAddMulSlice(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03}, byte(7), uint16(7), byte(0), byte(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c}, 200), byte(1), uint16(1), byte(1), byte(3))
	f.Add(bytes.Repeat([]byte{0xff}, 1024), byte(0xca), uint16(0x100b), byte(7), byte(2))
	f.Add(bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44}, 64), byte(0), uint16(0xffff), byte(3), byte(5))
	f.Fuzz(func(t *testing.T, data []byte, c8 byte, c16 uint16, dstOff, srcOff byte) {
		do, so := int(dstOff%8), int(srcOff%8)
		half := len(data) / 2

		// GF(2^8): first half is dst, second half src, shifted by the
		// fuzzed offsets to vary alignment.
		f8 := GF256()
		d8 := append(make([]uint8, do), data[:half]...)[do:]
		s8 := append(make([]uint8, so), data[half:half*2]...)[so:]
		want8 := append([]uint8(nil), d8...)
		f8.AddMulSliceGeneric(want8, s8, c8)
		got8 := append([]uint8(nil), d8...)
		f8.AddMulSlice(got8, s8, c8)
		if !bytes.Equal(want8, got8) {
			t.Fatalf("gf8 kernel %q diverges from generic (n=%d c=%d offs=%d/%d)\n got %v\nwant %v",
				f8.Kernel(), len(d8), c8, do, so, got8, want8)
		}
		f8.MulSliceGeneric(want8, c8)
		f8.MulSlice(got8, c8)
		if !bytes.Equal(want8, got8) {
			t.Fatalf("gf8 kernel %q MulSlice diverges from generic (n=%d c=%d)", f8.Kernel(), len(d8), c8)
		}

		// GF(2^16): reinterpret the same payload as symbols.
		f16 := GF65536()
		even := half &^ 1
		d16 := append(make([]uint16, do), Symbols16(data[:even])...)[do:]
		s16 := append(make([]uint16, so), Symbols16(data[even:even*2])...)[so:]
		want16 := append([]uint16(nil), d16...)
		f16.AddMulSliceGeneric(want16, s16, c16)
		got16 := append([]uint16(nil), d16...)
		f16.AddMulSlice(got16, s16, c16)
		for i := range want16 {
			if want16[i] != got16[i] {
				t.Fatalf("gf16 kernel %q diverges from generic (n=%d c=%d offs=%d/%d i=%d): got %d want %d",
					f16.Kernel(), len(d16), c16, do, so, i, got16[i], want16[i])
			}
		}
		f16.MulSliceGeneric(want16, c16)
		f16.MulSlice(got16, c16)
		for i := range want16 {
			if want16[i] != got16[i] {
				t.Fatalf("gf16 kernel %q MulSlice diverges from generic (n=%d c=%d i=%d)", f16.Kernel(), len(d16), c16, i)
			}
		}
	})
}
