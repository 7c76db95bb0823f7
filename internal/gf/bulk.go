package gf

import "unsafe"

// Bulk kernels. Two row layouts share one field:
//
//   - Symbol rows ([]E, this file): AddMulSlice, MulSlice and
//     AddMulSlices, the row arithmetic of the matrix package (products,
//     mat-vec, elimination) over short coefficient rows, and of the
//     GF(2^8) test fields. They run the portable layer only: coefficient
//     1 degenerates to a word-wide XOR; GF(2^8) uses the full 256x256
//     product table (one unconditional L1 lookup per symbol); GF(2^16)
//     builds a per-coefficient split product row (512 entries, 1 KiB)
//     for long slices and stays on branchy log/exp for short ones.
//   - Wire-order rows ([]byte, wire.go): AddMulBE16, every
//     payload-length combination in the protocol, on the big-endian
//     bytes packets carry. Its portable layer mirrors the one here; on
//     top of it sit the arch strip kernels (the GFNI affine kernel,
//     affine.go, or the AVX2 kernels over nibble-split tables,
//     nibble.go).
//
// The arch-dispatch layer (bulk_amd64.go / bulk_arm64.go /
// bulk_generic.go, `purego` escape hatch): pickKernels, run once at
// field construction, decides whether the strip kernels run; the arch*
// shim functions are called directly (never through function pointers)
// so their //go:noescape declarations keep every table and scratch
// argument on the stack.

const (
	wordBytes = 8
	// bulkMin16 is the GF(2^16) slice length above which building the
	// 512-entry per-coefficient product row pays for itself on the
	// portable layer (tuned with BenchmarkAddMulSlice; the crossover is
	// well under one cache line of table build per eight symbols
	// processed).
	bulkMin16 = 96
	// fusedStripBytes is the unit the wire-order strip kernels process:
	// four 32-byte blocks, kept in accumulator registers across all terms
	// of a pass, so each term's per-strip table or matrix broadcast
	// amortizes over 128 accumulator bytes.
	fusedStripBytes = 128
	// fusedWidth is the widest AVX2 pass (terms per accumulator walk).
	fusedWidth = 4
	// fusedMin16 is the row length (in symbols) above which AddMulBE16
	// runs the strip kernels: at least one strip, and the same
	// table-build crossover as the portable layer's product row.
	fusedMin16 = bulkMin16
)

// kernels is the arch-dispatch decision made once per field: the backend
// name (for diagnostics and benchmark labels), whether the arch* strip
// kernel shims may be called, and whether AddMulBE16 runs the GFNI
// affine kernel in place of the AVX2 kernels.
type kernels struct {
	name  string
	accel bool
	gfni  bool
}

// xorSlice computes dst[i] ^= src[i]. The middle of the two slices is
// processed as 64-bit words when both have the same alignment remainder;
// the (at most 7-byte) head and tail fall back to element operations.
func xorSlice[E Elem](dst, src []E) {
	n := len(dst)
	i := 0
	if n > 0 {
		elem := int(unsafe.Sizeof(dst[0]))
		if n*elem >= 2*wordBytes {
			dp := uintptr(unsafe.Pointer(&dst[0]))
			sp := uintptr(unsafe.Pointer(&src[0]))
			if dp%wordBytes == sp%wordBytes {
				// Element alignment guarantees the byte skip divides
				// evenly into elements (elem is 1 or 2 and dp%elem == 0).
				head := int((wordBytes-dp%wordBytes)%wordBytes) / elem
				for ; i < head; i++ {
					dst[i] ^= src[i]
				}
				words := (n - head) * elem / wordBytes
				dw := unsafe.Slice((*uint64)(unsafe.Pointer(&dst[head])), words)
				sw := unsafe.Slice((*uint64)(unsafe.Pointer(&src[head])), words)
				for w := range dw {
					dw[w] ^= sw[w]
				}
				i = head + words*wordBytes/elem
			}
		}
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// productRow fills low[b] = c*b and high[b] = c*(b<<8), the split product
// row used by the GF(2^16) generic layer. Only valid on fields with at
// least 2^16 elements.
func (f *Field[E]) productRow(low, high *[256]E, c E) {
	lc := int(f.log[c])
	exp, log := f.exp, f.log
	low[0], high[0] = 0, 0
	for b := 1; b < 256; b++ {
		low[b] = exp[lc+int(log[b])]
		high[b] = exp[lc+int(log[b<<8])]
	}
}

// AddMulSlice computes dst[i] ^= c * src[i] for every index. It is the
// inner kernel of all matrix products and row eliminations. dst and src
// must have the same length and must not overlap unless c is 0 or 1.
func (f *Field[E]) AddMulSlice(dst, src []E, c E) {
	if len(dst) != len(src) {
		panic("gf: AddMulSlice length mismatch")
	}
	f.addMul(dst, src, c)
}

// addMul is AddMulSlice without the length check.
func (f *Field[E]) addMul(dst, src []E, c E) {
	switch c {
	case 0:
		return
	case 1:
		xorSlice(dst, src)
		return
	}
	if f.mul8 != nil {
		row := f.mul8[int(c)<<8 : int(c)<<8+256]
		for i, s := range src {
			dst[i] ^= row[s]
		}
		return
	}
	if len(src) >= bulkMin16 {
		var low, high [256]E
		f.productRow(&low, &high, c)
		for i, s := range src {
			v := int(s)
			dst[i] ^= low[v&0xff] ^ high[v>>8]
		}
		return
	}
	lc := int(f.log[c])
	exp, log := f.exp, f.log
	for i, s := range src {
		if s != 0 {
			dst[i] ^= exp[lc+int(log[s])]
		}
	}
}

// MulSlice computes dst[i] = c * dst[i] for every index.
func (f *Field[E]) MulSlice(dst []E, c E) {
	switch c {
	case 0:
		clear(dst)
		return
	case 1:
		return
	}
	if f.mul8 != nil {
		row := f.mul8[int(c)<<8 : int(c)<<8+256]
		for i, d := range dst {
			dst[i] = row[d]
		}
		return
	}
	if len(dst) >= bulkMin16 {
		var low, high [256]E
		f.productRow(&low, &high, c)
		for i, d := range dst {
			v := int(d)
			dst[i] = low[v&0xff] ^ high[v>>8]
		}
		return
	}
	lc := int(f.log[c])
	exp, log := f.exp, f.log
	for i, d := range dst {
		if d != 0 {
			dst[i] = exp[lc+int(log[d])]
		}
	}
}

// AddMulSlices computes dst[i] ^= Σ_j cs[j] * srcs[j][i]: one accumulator
// updated by many (coefficient, row) terms — the shape of every mat-vec
// accumulation and panel-elimination update in the matrix package. Zero
// coefficients are skipped and unit coefficients degenerate to XOR.
// Every srcs row must have dst's length, and no row may partially
// overlap dst.
func (f *Field[E]) AddMulSlices(dst []E, srcs [][]E, cs []E) {
	if len(srcs) != len(cs) {
		panic("gf: AddMulSlices coefficient count mismatch")
	}
	for _, src := range srcs {
		if len(src) != len(dst) {
			panic("gf: AddMulSlices row length mismatch")
		}
	}
	if len(dst) == 0 || len(cs) == 0 {
		return
	}
	countDispatch(&dispatchSlices)
	for j, src := range srcs {
		f.addMul(dst, src, cs[j])
	}
}
