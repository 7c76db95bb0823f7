package gf

import "unsafe"

// Bulk kernels. MulSlice and AddMulSlice are the inner loops of every
// matrix product, elimination step and packet combination in the
// repository. They are layered:
//
//   - a portable generic layer (this file): coefficient 1 degenerates to a
//     word-wide XOR; GF(2^8) uses the full 256x256 product table (one
//     unconditional L1 lookup per symbol); GF(2^16) builds a
//     per-coefficient split product row (512 entries, 1 KiB) for long
//     slices and stays on branchy log/exp for short ones. This layer is
//     the reference implementation every other layer is differential-
//     tested against.
//   - a nibble-split table layer (nibble.go): per-coefficient 16-entry
//     tables sized so one table is one SIMD shuffle register.
//   - an arch-dispatch layer (bulk_amd64.go / bulk_arm64.go /
//     bulk_generic.go, `purego` escape hatch): pickKernels, run once at
//     field construction, decides whether the arch's block kernels run;
//     the arch* shim functions are called directly (never through
//     function pointers) so their //go:noescape declarations keep every
//     table and scratch argument on the stack.
//
// The batched entry points (AddMulSlices, EliminateRows) thread one
// nibCache through a run of rows so repeated coefficients build their
// tables once — and AddMulSlices additionally tiles its terms into fused
// multi-source passes (bulk_amd64.s strip kernels) so the accumulator is
// loaded and stored once per 2-4 terms instead of once per term.

const (
	wordBytes = 8
	// bulkMin16 is the GF(2^16) slice length above which building the
	// 512-entry per-coefficient product row pays for itself on the generic
	// layer (tuned with BenchmarkAddMulSlice; the crossover is well under
	// one cache line of table build per eight symbols processed).
	bulkMin16 = 96
	// nibMin16 / nibMin8 are the slice lengths (in symbols) above which
	// the accelerated nibble-block kernels pay for their per-coefficient
	// table build. Below them the generic layer wins (tuned with the
	// BenchmarkAddMulSlice kernel matrix; for GF(2^16) the crossover
	// lands on bulkMin16, so the branchy log/exp path keeps exactly the
	// range it kept before and the block kernels replace the product-row
	// regime).
	nibMin16 = 96
	nibMin8  = 96
	// kernelBlockBytes is the unit the single-source arch block kernels
	// process; the routing layer hands them whole blocks and finishes
	// tails with the portable nibble loops over the same tables.
	kernelBlockBytes = 32
	// fusedStripBytes is the unit the fused multi-source kernels process:
	// four blocks, kept in four accumulator registers across all terms of
	// a pass, so the GF(2^16) kernels' per-term table broadcasts amortize
	// over 128 accumulator bytes.
	fusedStripBytes = 128
	// fusedWidth is the widest fused pass (terms per accumulator walk).
	fusedWidth = 4
	// fusedMin8 / fusedMin16 are the slice lengths (in symbols) above
	// which AddMulSlices tiles into fused passes: at least one full strip,
	// and for GF(2^16) the same table-build crossover as the single-source
	// kernels (one strip plus a portable tail already wins there).
	fusedMin8  = fusedStripBytes
	fusedMin16 = nibMin16
)

// kernels is the arch-dispatch decision made once per field: the backend
// name (for diagnostics and benchmark labels), whether the arch* block
// kernel shims may be called, and whether AddMulBE16 runs the GFNI
// affine kernel in place of the AVX2 BE kernels.
type kernels struct {
	name  string
	accel bool
	gfni  bool
}

// nibCache carries built nibble tables across the rows of one batched
// kernel call, so a run of identical coefficients builds its tables once.
type nibCache struct {
	c     uint16
	valid bool
	t8    nib8
	t16   nib16
}

// as8 and as16 reinterpret a symbol slice at its native width for the
// block kernels. Callers guard on f.size so the width always matches E's
// underlying type.
func as8[E Elem](s []E) []uint8 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint8)(unsafe.Pointer(&s[0])), len(s))
}

func as16[E Elem](s []E) []uint16 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&s[0])), len(s))
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
// inner kernel of all matrix products and packet combinations. dst and src
// must have the same length and must not overlap unless c is 0 or 1.
func (f *Field[E]) AddMulSlice(dst, src []E, c E) {
	if len(dst) != len(src) {
		panic("gf: AddMulSlice length mismatch")
	}
	f.addMul(dst, src, c, nil)
}

// addMul routes one dst ^= c*src update to the widest applicable layer.
// nc, when non-nil, caches nibble tables across calls (the batched entry
// points); when nil a short-lived cache is used only if a block kernel
// runs, so the short-slice paths never pay for zeroing it.
func (f *Field[E]) addMul(dst, src []E, c E, nc *nibCache) {
	switch c {
	case 0:
		return
	case 1:
		xorSlice(dst, src)
		return
	}
	n := len(dst)
	if f.size > 256 {
		if f.kern.accel && n >= nibMin16 {
			var local nibCache
			if nc == nil {
				nc = &local
			}
			if !nc.valid || nc.c != uint16(c) {
				f.buildNib16(&nc.t16, c)
				nc.c, nc.valid = uint16(c), true
			}
			d, s := as16(dst), as16(src)
			off := 0
			if planar16 {
				// Whole 64-word strips go through the byte-planar
				// kernel: tables stay resident for the whole call and
				// each VPSHUFB covers 32 symbols instead of 16.
				if strips := n / (fusedStripBytes / 2); strips > 0 {
					archAddMulPlanar16(&d[0], &s[0], strips, &nc.t16)
					off = strips * (fusedStripBytes / 2)
				}
			}
			blocks := (n - off) / (kernelBlockBytes / 2)
			if blocks > 0 {
				archAddMul16(&d[off], &s[off], blocks, &nc.t16)
			}
			head := off + blocks*(kernelBlockBytes/2)
			addMulNib16(d[head:], s[head:], &nc.t16)
			return
		}
	} else if f.kern.accel && n >= nibMin8 {
		var local nibCache
		if nc == nil {
			nc = &local
		}
		if !nc.valid || nc.c != uint16(c) {
			f.buildNib8(&nc.t8, c)
			nc.c, nc.valid = uint16(c), true
		}
		d, s := as8(dst), as8(src)
		blocks := n / kernelBlockBytes
		head := blocks * kernelBlockBytes
		archAddMul8(&d[0], &s[0], blocks, &nc.t8)
		addMulNib8(d[head:], s[head:], &nc.t8)
		return
	}
	f.addMulGeneric(dst, src, c)
}

// addMulGeneric is the generic layer of AddMulSlice for c outside {0, 1}.
func (f *Field[E]) addMulGeneric(dst, src []E, c E) {
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

// AddMulSliceGeneric is AddMulSlice pinned to the portable generic layer,
// bypassing any accelerated kernel the field's dispatch selected. It is
// the reference implementation the differential and fuzz tests compare
// against, and the baseline arm of the kernel benchmark matrix.
func (f *Field[E]) AddMulSliceGeneric(dst, src []E, c E) {
	if len(dst) != len(src) {
		panic("gf: AddMulSliceGeneric length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		xorSlice(dst, src)
		return
	}
	f.addMulGeneric(dst, src, c)
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
	n := len(dst)
	if f.size > 256 {
		if f.kern.accel && n >= nibMin16 {
			var t nib16
			f.buildNib16(&t, c)
			d := as16(dst)
			blocks := n / (kernelBlockBytes / 2)
			head := blocks * (kernelBlockBytes / 2)
			archMul16(&d[0], &d[0], blocks, &t)
			mulSliceNib16(d[head:], &t)
			return
		}
	} else if f.kern.accel && n >= nibMin8 {
		var t nib8
		f.buildNib8(&t, c)
		d := as8(dst)
		blocks := n / kernelBlockBytes
		head := blocks * kernelBlockBytes
		archMul8(&d[0], &d[0], blocks, &t)
		mulSliceNib8(d[head:], &t)
		return
	}
	f.mulSliceGeneric(dst, c)
}

// mulSliceGeneric is the generic layer of MulSlice for c outside {0, 1}.
func (f *Field[E]) mulSliceGeneric(dst []E, c E) {
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

// MulSliceGeneric is MulSlice pinned to the portable generic layer; see
// AddMulSliceGeneric.
func (f *Field[E]) MulSliceGeneric(dst []E, c E) {
	switch c {
	case 0:
		clear(dst)
		return
	case 1:
		return
	}
	f.mulSliceGeneric(dst, c)
}

// AddMulSlices computes dst[i] ^= Σ_j cs[j] * srcs[j][i]: one accumulator
// updated by many (coefficient, row) terms — the shape of every y/z/s
// packet combination, mat-vec accumulation and panel-elimination update in
// the protocol. Zero coefficients are skipped and unit coefficients
// degenerate to XOR (or fuse through an identity table when a fused pass
// is running anyway). On accelerated fields with long slices the terms
// are tiled into fused multi-source passes — groups of 4, then 2, then 1
// — so the accumulator is loaded and stored once per group instead of
// once per term; repeated coefficients share their tables both within a
// pass and across passes via the nibble cache. Every srcs row must have
// dst's length, and no row may partially overlap dst.
func (f *Field[E]) AddMulSlices(dst []E, srcs [][]E, cs []E) {
	if len(srcs) != len(cs) {
		panic("gf: AddMulSlices coefficient count mismatch")
	}
	for _, src := range srcs {
		if len(src) != len(dst) {
			panic("gf: AddMulSlices row length mismatch")
		}
	}
	n := len(dst)
	if n == 0 || len(cs) == 0 {
		return
	}
	countDispatch(&dispatchSlices)
	if f.kern.accel {
		if f.size > 256 {
			if n >= fusedMin16 {
				countDispatch(&dispatchSlicesFused)
				f.fusedAddMulSlices16(dst, srcs, cs)
				return
			}
		} else if n >= fusedMin8 {
			countDispatch(&dispatchSlicesFused)
			f.fusedAddMulSlices8(dst, srcs, cs)
			return
		}
	}
	var nc nibCache
	for j, src := range srcs {
		f.addMul(dst, src, cs[j], &nc)
	}
}

// AddMulSlicesPerTerm is AddMulSlices pinned to the per-term dispatch
// path: one full accumulator walk per (coefficient, row) term, tables
// shared across terms via the nibble cache but never fused. It is the
// reference arm the fused routing is benchmarked against
// (speedup_vs_per_term in BENCH_gf.json) and a differential anchor for
// the fused tests.
func (f *Field[E]) AddMulSlicesPerTerm(dst []E, srcs [][]E, cs []E) {
	if len(srcs) != len(cs) {
		panic("gf: AddMulSlicesPerTerm coefficient count mismatch")
	}
	var nc nibCache
	for j, src := range srcs {
		if len(src) != len(dst) {
			panic("gf: AddMulSlicesPerTerm row length mismatch")
		}
		f.addMul(dst, src, cs[j], &nc)
	}
}

// fusedAddMulSlices16 tiles a GF(2^16) combination into fused strip
// passes. Terms with zero coefficients are dropped while gathering;
// everything else — unit coefficients included — joins a pass of up to
// fusedWidth terms. Each pass walks the accumulator once: whole strips in
// the arch kernel, the tail in one portable fused nibble loop.
func (f *Field[E]) fusedAddMulSlices16(dst []E, srcs [][]E, cs []E) {
	d := as16(dst)
	n := len(d)
	strips := n * 2 / fusedStripBytes
	head := strips * (fusedStripBytes / 2)
	var (
		ts [fusedWidth]nib16
		tc [fusedWidth]uint16
		sp [fusedWidth]*uint16
		tl [fusedWidth][]uint16
		nc nibCache
	)
	j := 0
	for j < len(cs) {
		k := 0
		for j < len(cs) && k < fusedWidth {
			c := uint16(cs[j])
			src := srcs[j]
			j++
			if c == 0 {
				continue
			}
			s := as16(src)
			built := false
			for p := 0; p < k; p++ {
				if tc[p] == c {
					ts[k] = ts[p]
					built = true
					break
				}
			}
			if !built && nc.valid && nc.c == c {
				ts[k] = nc.t16
				built = true
			}
			if !built {
				f.buildNib16(&ts[k], E(c))
				nc.t16, nc.c, nc.valid = ts[k], c, true
			}
			tc[k] = c
			sp[k] = &s[0]
			tl[k] = s[head:]
			k++
		}
		switch k {
		case 0:
			// Only zero coefficients gathered; nothing to apply.
		case 1:
			if strips > 0 {
				if planar16 {
					archAddMulPlanar16(&d[0], sp[0], strips, &ts[0])
				} else {
					archAddMul16(&d[0], sp[0], strips*fusedStripBytes/kernelBlockBytes, &ts[0])
				}
			}
			addMulNib16(d[head:], tl[0], &ts[0])
		case 2:
			if strips > 0 {
				archAddMul2x16(&d[0], &sp[0], strips, &ts[0])
			}
			addMulNib16x2(d[head:], tl[0], tl[1], &ts)
		case 3:
			// A 2-term fused pass plus one single-source pass: cheaper than
			// shuffling a dead zero-coefficient fourth term through the
			// 4-term kernel.
			if strips > 0 {
				archAddMul2x16(&d[0], &sp[0], strips, &ts[0])
				if planar16 {
					archAddMulPlanar16(&d[0], sp[2], strips, &ts[2])
				} else {
					archAddMul16(&d[0], sp[2], strips*fusedStripBytes/kernelBlockBytes, &ts[2])
				}
			}
			addMulNib16x2(d[head:], tl[0], tl[1], &ts)
			addMulNib16(d[head:], tl[2], &ts[2])
		case 4:
			if strips > 0 {
				archAddMul4x16(&d[0], &sp[0], strips, &ts[0])
			}
			addMulNib16x4(d[head:], tl[0], tl[1], tl[2], tl[3], &ts)
		}
	}
}

// fusedAddMulSlices8 is fusedAddMulSlices16 for GF(2^8).
func (f *Field[E]) fusedAddMulSlices8(dst []E, srcs [][]E, cs []E) {
	d := as8(dst)
	n := len(d)
	strips := n / fusedStripBytes
	head := strips * fusedStripBytes
	var (
		ts [fusedWidth]nib8
		tc [fusedWidth]uint16
		sp [fusedWidth]*uint8
		tl [fusedWidth][]uint8
		nc nibCache
	)
	j := 0
	for j < len(cs) {
		k := 0
		for j < len(cs) && k < fusedWidth {
			c := uint16(cs[j])
			src := srcs[j]
			j++
			if c == 0 {
				continue
			}
			s := as8(src)
			built := false
			for p := 0; p < k; p++ {
				if tc[p] == c {
					ts[k] = ts[p]
					built = true
					break
				}
			}
			if !built && nc.valid && nc.c == c {
				ts[k] = nc.t8
				built = true
			}
			if !built {
				f.buildNib8(&ts[k], E(c))
				nc.t8, nc.c, nc.valid = ts[k], c, true
			}
			tc[k] = c
			sp[k] = &s[0]
			tl[k] = s[head:]
			k++
		}
		switch k {
		case 0:
		case 1:
			if strips > 0 {
				archAddMul8(&d[0], sp[0], strips*fusedStripBytes/kernelBlockBytes, &ts[0])
			}
			addMulNib8(d[head:], tl[0], &ts[0])
		case 2:
			if strips > 0 {
				archAddMul2x8(&d[0], &sp[0], strips, &ts[0])
			}
			addMulNib8x2(d[head:], tl[0], tl[1], &ts)
		case 3:
			if strips > 0 {
				archAddMul2x8(&d[0], &sp[0], strips, &ts[0])
				archAddMul8(&d[0], sp[2], strips*fusedStripBytes/kernelBlockBytes, &ts[2])
			}
			addMulNib8x2(d[head:], tl[0], tl[1], &ts)
			addMulNib8(d[head:], tl[2], &ts[2])
		case 4:
			if strips > 0 {
				archAddMul4x8(&d[0], &sp[0], strips, &ts[0])
			}
			addMulNib8x4(d[head:], tl[0], tl[1], tl[2], tl[3], &ts)
		}
	}
}

// EliminateRows computes dsts[j][i] ^= cs[j] * src[i] for every row j: the
// multi-row elimination update (subtract multiples of one pivot row from
// many target rows) that Gaussian elimination performs within a panel.
// The pivot row stays hot across all updates and the nibble-table cache is
// shared, so repeated coefficients build their tables once. Every dsts row
// must have src's length.
//
// Accumulators are distinct here, so the fused multi-source kernels do
// not apply; the bulk of elimination work instead reaches them through
// the matrix package's panel elimination, which presents each target row
// as one multi-term AddMulSlices call over several pivot rows.
func (f *Field[E]) EliminateRows(dsts [][]E, src []E, cs []E) {
	if len(dsts) != len(cs) {
		panic("gf: EliminateRows coefficient count mismatch")
	}
	countDispatch(&dispatchEliminate)
	var nc nibCache
	for j, d := range dsts {
		if len(d) != len(src) {
			panic("gf: EliminateRows row length mismatch")
		}
		f.addMul(d, src, cs[j], &nc)
	}
}
