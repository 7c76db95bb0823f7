package gf

import (
	"math/bits"
	"sync"
)

// Affine matrices for wire-order GF(2^16) rows (the GFNI path of
// AddMulBE16).
//
// Multiplying by a constant c in GF(2^16) is a linear map over GF(2), a
// 16x16 bit matrix, which splits into four 8x8 blocks over a symbol's two
// bytes. With s = hi<<8 | lo, the product's bytes are
//
//	hi' = Mhh·hi ^ Mlh·lo
//	lo' = Mll·lo ^ Mhl·hi
//
// where Mab maps byte a of the source into byte b of the product. GFNI's
// VGF2P8AFFINEQB applies one 8x8 block to every byte of a 64-bit lane,
// and an affine op does not care where a byte sits, so the kernel only
// shuffles each 128-bit lane of wire bytes to [8 high bytes | 8 low
// bytes]. One matrix register [Mhh | Mll] then yields both direct
// products of a lane, and one register [Mhl | Mlh] both cross products,
// each landing in the other half of the lane; the kernel keeps the two
// sums in separate accumulators and swaps the cross sum's halves once
// per strip, not once per term. A coefficient costs 32 bytes of
// matrices against the 128 bytes of nibble tables, and 32 symbols cost
// one shuffle and two affine ops.

// mat16 holds the four 8x8 blocks of multiplication by one coefficient,
// each in VGF2P8AFFINEQB's encoding: byte 7-i of the block is the row
// that computes bit i of the output byte. The order — Mhh, Mll, then
// Mhl, Mlh — is the assembly ABI (bulk_amd64.s, gf16AddMulBEGFNI).
type mat16 [4]uint64

// buildMat16 fills the affine blocks for coefficient c. Only valid on
// GF(2^16) with c != 0. Column k of a block is the product of c with the
// source byte's bit k, so sixteen doublings give every column, and one
// 8x8 bit transpose per block turns columns into rows.
func (f *Field[E]) buildMat16(m *mat16, c E) {
	poly := uint32(f.poly)
	p := uint32(c)
	double := func() {
		p = p<<1 ^ -(p>>15)&poly
	}
	var ll, lh, hl, hh uint64
	for k := 0; k < 64; k += 8 {
		ll |= uint64(p&0xff) << k
		lh |= uint64(p>>8) << k
		double()
	}
	for k := 0; k < 64; k += 8 {
		hl |= uint64(p&0xff) << k
		hh |= uint64(p>>8) << k
		double()
	}
	m[0], m[1], m[2], m[3] = affineRows(hh), affineRows(ll), affineRows(hl), affineRows(lh)
}

// affineRows turns an 8x8 block given by columns (byte k = the output
// byte for source bit k) into VGF2P8AFFINEQB rows (byte 7-i = the source
// bits feeding output bit i): a bit transpose, bit 8r+c to bit 8c+r, in
// three delta swaps, then a byte reversal.
func affineRows(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	x ^= t ^ t<<28
	return bits.ReverseBytes64(x)
}

// cauchyPoints bounds the coefficients whose matrices are tabled.
// Every coefficient the protocol's rounds pass AddMulBE16 is a Cauchy
// entry 1/(i ⊕ (rows+j)) (matrix.CauchyInto), whose inverse is a point
// below rows+cols, a few hundred at the round shapes the stream derives.
// Such coefficients rarely repeat within a row, so without the table
// every term would pay a matrix build.
const cauchyPoints = 1024

// cauchyMat16 is the process-wide table: entry v holds the matrices of
// 1/v (entry 0 is unused). Built on first use, 32 KiB.
var cauchyMat16 = sync.OnceValue(func() *[cauchyPoints]mat16 {
	f := GF65536()
	t := new([cauchyPoints]mat16)
	for v := 1; v < cauchyPoints; v++ {
		f.buildMat16(&t[v], f.Inv(uint16(v)))
	}
	return t
})

// mat16For fills m with the matrices of c != 0: one inversion and a
// table copy for a Cauchy coefficient, a build for any other.
func (f *Field[E]) mat16For(m *mat16, c E) {
	if v := int(f.Inv(c)); v < cauchyPoints {
		*m = cauchyMat16()[v]
		return
	}
	f.buildMat16(m, c)
}

// affineBatch is the most terms one GFNI kernel call accumulates: the
// kernel keeps each 128-byte strip of dst in registers across all of
// them, so dst is loaded and stored once per batch.
const affineBatch = 16

// affineAddMulBE16 is AddMulBE16's GFNI route: whole strips run in the
// affine kernel, affineBatch terms per call, and the tail (under one
// strip) through the portable layer term by term. dst must hold at
// least one strip.
func (f *Field[E]) affineAddMulBE16(dst []byte, srcs [][]byte, cs []uint16) {
	strips := len(dst) / fusedStripBytes
	head := strips * fusedStripBytes
	var (
		ms [affineBatch]mat16
		sp [affineBatch]*byte
	)
	k := 0
	for j, c := range cs {
		if c == 0 {
			continue
		}
		f.mat16For(&ms[k], E(c))
		sp[k] = &srcs[j][0]
		if k++; k == affineBatch {
			archAddMulAffineBE16(&dst[0], &sp[0], &ms[0], k, strips)
			k = 0
		}
		f.addMulBE16Generic(dst[head:], srcs[j][head:], c)
	}
	if k > 0 {
		archAddMulAffineBE16(&dst[0], &sp[0], &ms[0], k, strips)
	}
}
