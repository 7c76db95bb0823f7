package mds

import (
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// The field-size ablation: the protocol runs over GF(2^16) because Cauchy
// constructions need rows+cols distinct points and GF(2^8) caps that at
// 256; these benches quantify what the safety margin costs on the coding
// fast paths (the "field size" ablation).

func benchExtract[E gf.Elem](b *testing.B, f *gf.Field[E], m, c, width int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	w := NewWiretapExtractor(f, m, c)
	src := make([][]E, c)
	for i := range src {
		src[i] = make([]E, width)
		for j := range src[i] {
			src[i][j] = E(rng.Intn(f.Size()))
		}
	}
	b.SetBytes(int64(c * width * int(unsafeSizeof[E]())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Extract(src)
	}
}

// unsafeSizeof avoids importing unsafe: symbol widths are known.
func unsafeSizeof[E gf.Elem]() uintptr {
	var e E
	switch any(e).(type) {
	case uint8:
		return 1
	default:
		return 2
	}
}

func BenchmarkWiretapExtractGF256(b *testing.B) {
	benchExtract(b, gf.GF256(), 8, 64, 100)
}

func BenchmarkWiretapExtractGF65536(b *testing.B) {
	benchExtract(b, gf.GF65536(), 8, 64, 50)
}

func benchReconstruct[E gf.Elem](b *testing.B, f *gf.Field[E], k, r, width int) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	code := NewSystematicCode(f, k, r)
	data := make([][]E, k)
	for i := range data {
		data[i] = make([]E, width)
		for j := range data[i] {
			data[i][j] = E(rng.Intn(f.Size()))
		}
	}
	parity := code.EncodeParity(data)
	// Worst-case erasure: all parity symbols needed.
	known := map[int][]E{}
	for i := r; i < k; i++ {
		known[i] = data[i]
	}
	for i := 0; i < r; i++ {
		known[k+i] = parity[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Reconstruct(known); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructGF256(b *testing.B) {
	benchReconstruct(b, gf.GF256(), 24, 8, 100)
}

func BenchmarkReconstructGF65536(b *testing.B) {
	benchReconstruct(b, gf.GF65536(), 24, 8, 50)
}

func BenchmarkRedistributionRoundGF65536(b *testing.B) {
	f := gf.GF65536()
	rng := rand.New(rand.NewSource(3))
	const m, l, width = 24, 8, 50
	y := make([][]uint16, m)
	for i := range y {
		y[i] = make([]uint16, width)
		for j := range y[i] {
			y[i][j] = uint16(rng.Intn(65536))
		}
	}
	rc := NewRedistributionCode(f, m, l)
	wy := wire(y)
	known := map[int][]byte{}
	for i := 0; i < l; i++ {
		known[i] = wy[i]
	}
	coeffs := MatrixToRows(rc.ZCoeffs())
	var c Completion
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := rc.EncodeZ(y)
		if _, err := c.Complete(f, m, known, coeffs, wire(z)); err != nil {
			b.Fatal(err)
		}
		rc.EncodeS(y)
	}
}
