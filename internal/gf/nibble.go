package gf

// Nibble-split coefficient tables: the table layout of the AVX2
// wire-order kernels (bulk_amd64.s) and of the portable loop that
// finishes their tails (wire.go).
//
// The idea — the classic Reed-Solomon "PSHUFB idiom" — is to split each
// source symbol into 4-bit nibbles and precompute, per coefficient c, one
// 16-entry table per nibble position. A product is then a handful of
// 16-entry lookups, and a 16-entry byte table is exactly one SIMD shuffle
// register (PSHUFB on amd64, TBL on arm64). With s = n0 | n1<<4 | n2<<8 |
// n3<<12, c*s is the XOR of four per-nibble contributions c*(nk<<4k).
// Each contribution is a 16-bit value, kept as two byte tables (low and
// high product byte) so byte shuffles can look them up: 4 nibbles x 2
// halves = eight 16-byte tables, 128 bytes per coefficient.
//
// The layout below is part of the assembly ABI: bulk_amd64.s indexes
// nib16 by fixed byte offsets (lo tables first, then hi tables).

// nib16 holds the GF(2^16) nibble tables for one coefficient c: for nibble
// position k, lo[k][n] and hi[k][n] are the low and high bytes of
// c*(n<<4k).
type nib16 struct {
	lo [4][16]byte
	hi [4][16]byte
}

// buildNib16 fills the GF(2^16) nibble tables for coefficient c. Only
// valid on fields with at least 2^16 elements and c != 0.
//
// The build is the hot fixed cost of the AVX2 path (it runs per term),
// so instead of 60 log/exp lookups it uses the doubling recurrence
// ck*(2j) = 2*(ck*j) and ck*(2j+1) = 2*(ck*j) ^ ck: each table is 14
// shift/xor steps with no memory loads, and the per-nibble coefficients
// ck = c<<4k chain by four more doublings.
func (f *Field[E]) buildNib16(t *nib16, c E) {
	poly := uint32(f.poly)
	mul2 := func(v uint32) uint32 {
		v <<= 1
		if v&0x10000 != 0 {
			v ^= poly
		}
		return v
	}
	ck := uint32(c)
	for k := 0; k < 4; k++ {
		var tab [16]uint32
		t.lo[k][0], t.hi[k][0] = 0, 0
		tab[1] = ck
		t.lo[k][1], t.hi[k][1] = byte(ck), byte(ck>>8)
		for j := 2; j < 16; j += 2 {
			d := mul2(tab[j/2])
			tab[j] = d
			t.lo[k][j], t.hi[k][j] = byte(d), byte(d>>8)
			d ^= ck
			tab[j+1] = d
			t.lo[k][j+1], t.hi[k][j+1] = byte(d), byte(d>>8)
		}
		ck = mul2(mul2(mul2(mul2(ck))))
	}
}

// mulNib16 computes c*s through the nibble tables.
func mulNib16(t *nib16, s uint16) uint16 {
	n0, n1, n2, n3 := s&0xf, (s>>4)&0xf, (s>>8)&0xf, s>>12
	lo := t.lo[0][n0] ^ t.lo[1][n1] ^ t.lo[2][n2] ^ t.lo[3][n3]
	hi := t.hi[0][n0] ^ t.hi[1][n1] ^ t.hi[2][n2] ^ t.hi[3][n3]
	return uint16(hi)<<8 | uint16(lo)
}
