package gf

import (
	"bytes"
	"testing"
)

// FuzzAddMulSlices differential-tests AddMulBE16's multi-term routing —
// term grouping, strip kernels, portable tails, repeated/zero/one
// coefficient handling, table sharing — against a per-row loop of the
// portable layer on the rows' symbols, over arbitrary source counts
// (1..12), payloads, coefficients and byte alignments (odd ones
// included). It runs the terms through AddMulBE16 as dispatched and
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
	// 9 sources over 3 strips and a 6-byte tail, and 5 sources over 5
	// strips and one symbol.
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
		n := chunk / 2
		f := GF65536()
		dst := symbolsOf(data[:n*2])
		srcs := make([][]uint16, rows)
		bsrcs := make([][]byte, rows)
		cs := make([]uint16, rows)
		for j := range srcs {
			row := data[(j+1)*chunk : (j+1)*chunk+n*2]
			srcs[j] = symbolsOf(row)
			bsrcs[j] = append(make([]byte, so), row...)[so:]
			cs[j] = fuzzCoeff16(coefBytes, j)
		}
		want := append([]uint16(nil), dst...)
		for j := range srcs {
			f.AddMulSlice(want, srcs[j], cs[j])
		}
		wantB := wireOf(want)
		bdst := append(make([]byte, do), data[:n*2]...)[do:]
		gotB := append([]byte(nil), bdst...)
		f.AddMulBE16(gotB, bsrcs, cs)
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("kernel %q AddMulBE16 diverges from the symbol result (n=%d strips=%d rows=%d offs=%d/%d)",
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
				t.Fatalf("AddMulBE16's %s route diverges from the symbol result (n=%d rows=%d offs=%d/%d)", r.name, n, rows, do, so)
			}
		}
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

// FuzzAddMulSlice differential-tests single-term AddMulBE16, on the
// route dispatch picked, against scalar Mul over arbitrary payloads,
// coefficients and byte alignments (odd ones included). The fuzzer owns
// the search for the length/alignment/coefficient combination the
// hand-written kernelLengths table missed; any divergence is a crash.
//
// CI runs this both as a regular test (corpus replay, including under the
// purego tag) and as a short -fuzz smoke in the test job.
func FuzzAddMulSlice(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03}, uint16(7), byte(0), byte(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c}, 200), uint16(1), byte(1), byte(3))
	f.Add(bytes.Repeat([]byte{0xff}, 1024), uint16(0x100b), byte(7), byte(2))
	f.Add(bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44}, 64), uint16(0xffff), byte(3), byte(5))
	f.Fuzz(func(t *testing.T, data []byte, c uint16, dstOff, srcOff byte) {
		do, so := int(dstOff%8), int(srcOff%8)
		// First half is dst, second half src, each an even number of
		// bytes, shifted by the fuzzed offsets to vary alignment.
		even := len(data) / 2 &^ 1
		f := GF65536()
		d := append(make([]byte, do), data[:even]...)[do:]
		s := append(make([]byte, so), data[even:even*2]...)[so:]
		want := symbolsOf(d)
		for i, v := range symbolsOf(s) {
			want[i] ^= f.Mul(c, v)
		}
		f.AddMulBE16(d, [][]byte{s}, []uint16{c})
		if got := symbolsOf(d); !bytes.Equal(d, wireOf(want)) {
			t.Fatalf("kernel %q AddMulBE16 diverges from scalar Mul (n=%d c=%d offs=%d/%d)\n got %v\nwant %v",
				f.Kernel(), len(want), c, do, so, got, want)
		}
	})
}
