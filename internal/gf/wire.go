package gf

// Wire-order rows. Packet payloads carry GF(2^16) symbols as big-endian
// byte pairs, and every payload-length combination in the protocol —
// the leader's y-, z- and s-packets, a member's y-packets and secret,
// erasure completion, the eavesdropper's reconstruction — runs here on
// those bytes, so nothing converts a payload to symbols and back. On a
// GFNI host the affine kernel takes every whole strip (affine.go).
// Otherwise the byte-planar AVX2 kernels do: they split every strip into
// a high-byte and a low-byte plane, and look each nibble's product bytes
// up in the coefficient's nibble tables (bulk_amd64.s, nibble.go). The
// portable layer below is the reference and the purego path.

// AddMulBE16 computes dst ^= Σ_j cs[j]·srcs[j] over GF(2^16), where dst
// and every srcs row are wire-order rows: symbol i is the big-endian
// pair row[2i], row[2i+1]: AddMulSlices on the rows' symbols, without
// decoding them. Zero coefficients are skipped. Every row must have
// dst's even length, and no row may partially overlap dst. The field
// must be GF(2^16).
func (f *Field[E]) AddMulBE16(dst []byte, srcs [][]byte, cs []uint16) {
	if f.size != 1<<16 {
		panic("gf: AddMulBE16 needs GF(2^16)")
	}
	if len(srcs) != len(cs) {
		panic("gf: AddMulBE16 coefficient count mismatch")
	}
	if len(dst)%2 != 0 {
		panic("gf: AddMulBE16 row of odd length")
	}
	for _, src := range srcs {
		if len(src) != len(dst) {
			panic("gf: AddMulBE16 row length mismatch")
		}
	}
	if len(dst) == 0 || len(cs) == 0 {
		return
	}
	countDispatch(&dispatchSlices)
	if f.kern.accel && len(dst)/2 >= fusedMin16 {
		countDispatch(&dispatchSlicesFused)
		if f.kern.gfni {
			f.affineAddMulBE16(dst, srcs, cs)
		} else {
			f.fusedAddMulBE16(dst, srcs, cs)
		}
		return
	}
	for j, src := range srcs {
		f.addMulBE16Generic(dst, src, cs[j])
	}
}

// fusedAddMulBE16 is AddMulBE16's AVX2 route: terms are gathered into
// passes of up to fusedWidth, each pass walks dst's whole strips once in
// a strip kernel, and the tail (under one strip) runs through the
// portable nibble loop term by term. A coefficient repeated within a
// pass, or from the last table built, shares its tables.
func (f *Field[E]) fusedAddMulBE16(dst []byte, srcs [][]byte, cs []uint16) {
	strips := len(dst) / fusedStripBytes
	head := strips * fusedStripBytes
	var (
		ts    [fusedWidth]nib16
		tc    [fusedWidth]uint16
		sp    [fusedWidth]*byte
		tl    [fusedWidth][]byte
		last  nib16  // the tables built last, kept across passes
		lastC uint16 // their coefficient; 0 until one is built
	)
	j := 0
	for j < len(cs) {
		k := 0
		for j < len(cs) && k < fusedWidth {
			c, src := cs[j], srcs[j]
			j++
			if c == 0 {
				continue
			}
			built := false
			for p := 0; p < k; p++ {
				if tc[p] == c {
					ts[k] = ts[p]
					built = true
					break
				}
			}
			if !built && lastC == c {
				ts[k] = last
				built = true
			}
			if !built {
				f.buildNib16(&ts[k], E(c))
				last, lastC = ts[k], c
			}
			tc[k] = c
			sp[k] = &src[0]
			tl[k] = src[head:]
			k++
		}
		if strips > 0 {
			switch k {
			case 1:
				archAddMulPlanarBE16(&dst[0], sp[0], strips, &ts[0])
			case 2:
				archAddMul2xBE16(&dst[0], &sp[0], strips, &ts[0])
			case 3:
				// A 2-term pass plus one single-source pass: cheaper than
				// shuffling a dead fourth term through the 4-term kernel.
				archAddMul2xBE16(&dst[0], &sp[0], strips, &ts[0])
				archAddMulPlanarBE16(&dst[0], sp[2], strips, &ts[2])
			case 4:
				archAddMul4xBE16(&dst[0], &sp[0], strips, &ts[0])
			}
		}
		for p := 0; p < k; p++ {
			addMulNibBE16(dst[head:], tl[p], &ts[p])
		}
	}
}

// addMulBE16Generic is the portable layer of AddMulBE16 for one term:
// a split product row for long rows, log/exp for short ones, as addMul
// does for symbol rows.
func (f *Field[E]) addMulBE16Generic(dst, src []byte, c uint16) {
	switch c {
	case 0:
		return
	case 1:
		xorSlice(dst, src)
		return
	}
	if len(src)/2 >= bulkMin16 {
		var low, high [256]E
		f.productRow(&low, &high, E(c))
		for i := 0; i+1 < len(src); i += 2 {
			v := uint16(low[src[i+1]] ^ high[src[i]])
			dst[i] ^= byte(v >> 8)
			dst[i+1] ^= byte(v)
		}
		return
	}
	lc := int(f.log[c])
	exp, log := f.exp, f.log
	for i := 0; i+1 < len(src); i += 2 {
		if s := int(src[i])<<8 | int(src[i+1]); s != 0 {
			v := uint16(exp[lc+int(log[s])])
			dst[i] ^= byte(v >> 8)
			dst[i+1] ^= byte(v)
		}
	}
}

// addMulNibBE16 computes dst ^= c*src over wire-order rows through c's
// nibble tables: the portable form of the AVX2 strip kernels, used for
// their tails.
func addMulNibBE16(dst, src []byte, t *nib16) {
	for i := 0; i+1 < len(src); i += 2 {
		v := mulNib16(t, uint16(src[i])<<8|uint16(src[i+1]))
		dst[i] ^= byte(v >> 8)
		dst[i+1] ^= byte(v)
	}
}
