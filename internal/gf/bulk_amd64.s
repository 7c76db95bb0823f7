//go:build amd64 && !purego

#include "textflag.h"

// Wire-order GF(2^16) strip kernels (see wire.go for the routing and
// affine.go for the GFNI matrices). A row holds each symbol as two
// bytes, high byte first, and every kernel takes whole 128-byte strips
// of it; the routing layer finishes tails portably.
//
// The AVX2 kernels work on a byte-planar view of each strip: its 64
// symbols are split into a plane of 64 high bytes and a plane of 64 low
// bytes (two YMM each), so one VPSHUFB covers a nibble of 32 symbols.
// A coefficient's nibble tables (nib16 in nibble.go, indexed here by
// fixed byte offsets) give, per nibble position k, the low and high
// product bytes of c*(n<<4k). The split costs 8 ops per 32 symbols
// (shuffle to [evens|odds] per lane, VPERMQ to planar halves, VPERM2I128
// to full planes) and is amortized over all nibble positions of a term;
// the accumulator planes convert back once per strip.
//
// Register budget (exactly 16): Y0-Y3 lo tables, Y4-Y7 hi tables,
// Y8-Y11 accumulator planes (L0, H0, L1, H1), Y12-Y15 transient
// (staging, source planes, shuffle temporaries). The byte nibble mask
// and the deinterleave pattern come in as memory operands.

// 0x0f in every byte: the per-byte nibble mask.
DATA byteNibMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byteNibMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byteNibMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA byteNibMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL byteNibMask<>(SB), RODATA|NOPTR, $32

// deintPat gathers the even bytes then the odd bytes of each 128-bit
// lane: the symbol-to-plane shuffle.
DATA deintPat<>+0x00(SB)/8, $0x0e0c0a0806040200
DATA deintPat<>+0x08(SB)/8, $0x0f0d0b0907050301
DATA deintPat<>+0x10(SB)/8, $0x0e0c0a0806040200
DATA deintPat<>+0x18(SB)/8, $0x0f0d0b0907050301
GLOBL deintPat<>(SB), RODATA|NOPTR, $32

// GF16DEINT loads 32 symbols at off(sreg) and produces their even-byte
// plane in outE and odd-byte plane in outO, staging through tA and tB.
// In wire order the even bytes are the high bytes.
#define GF16DEINT(off, sreg, outE, outO, tA, tB) \
	VMOVDQU    off+0(sreg), tA          \
	VMOVDQU    off+32(sreg), tB         \
	VPSHUFB    deintPat<>(SB), tA, tA   \
	VPSHUFB    deintPat<>(SB), tB, tB   \
	VPERMQ     $0xd8, tA, tA            \
	VPERMQ     $0xd8, tB, tB            \
	VPERM2I128 $0x20, tB, tA, outE      \
	VPERM2I128 $0x31, tB, tA, outO

// GF16REINT interleaves the contribution planes aE/aO back into 32
// symbols, aE into the even bytes, XORs them into dst at off(DI), and
// stores. The accumulators start zeroed each strip, so dst itself never
// needs splitting — it is folded in here, in wire order.
#define GF16REINT(off, aE, aO, tA, tB) \
	VPUNPCKLBW aO, aE, tA          \
	VPUNPCKHBW aO, aE, tB          \
	VPERM2I128 $0x20, tB, tA, aE   \
	VPERM2I128 $0x31, tB, tA, aO   \
	VPXOR      off+0(DI), aE, aE   \
	VPXOR      off+32(DI), aO, aO  \
	VMOVDQU    aE, off+0(DI)       \
	VMOVDQU    aO, off+32(DI)

// GF16ZEROACC clears the four accumulator planes for a new strip.
#define GF16ZEROACC \
	VPXOR Y8, Y8, Y8    \
	VPXOR Y9, Y9, Y9    \
	VPXOR Y10, Y10, Y10 \
	VPXOR Y11, Y11, Y11

// GF16PLANARTERM accumulates one term's contribution for 32 symbols:
// source planes in Y14 (low bytes) and Y15 (high bytes), tables in
// Y0-Y7, accumulator planes aL/aH. Destroys Y14, Y15; clobbers Y12, Y13.
// Each nibble position k contributes shuffle(lo_k) to the low plane and
// shuffle(hi_k) to the high plane. The odd nibbles come from
// (plane ^ low_nibbles) >> 4: the word-wise shift of plane & 0xf0 leaves
// bits 4-7 of every byte zero (the neighbor byte's contribution was
// masked off before the shift), so the result is a clean VPSHUFB index
// with one register XOR instead of a second mask load.
#define GF16PLANARTERM(aL, aH) \
	VPAND   byteNibMask<>(SB), Y14, Y12 \ // nibble 0: low bytes & 0xf
	VPSHUFB Y12, Y0, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y12, Y4, Y13                \
	VPXOR   Y13, aH, aH                 \
	VPXOR   Y12, Y14, Y14               \ // nibble 1: (low & 0xf0) >> 4
	VPSRLW  $4, Y14, Y14                \
	VPSHUFB Y14, Y1, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y14, Y5, Y13                \
	VPXOR   Y13, aH, aH                 \
	VPAND   byteNibMask<>(SB), Y15, Y12 \ // nibble 2: high bytes & 0xf
	VPSHUFB Y12, Y2, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y12, Y6, Y13                \
	VPXOR   Y13, aH, aH                 \
	VPXOR   Y12, Y15, Y15               \ // nibble 3: (high & 0xf0) >> 4
	VPSRLW  $4, Y15, Y15                \
	VPSHUFB Y15, Y3, Y13                \
	VPXOR   Y13, aL, aL                 \
	VPSHUFB Y15, Y7, Y13                \
	VPXOR   Y13, aH, aH

// GF16TABS broadcasts one term's eight nibble tables from off(DX).
#define GF16TABS(off) \
	VBROADCASTI128 off+0(DX), Y0    \
	VBROADCASTI128 off+16(DX), Y1   \
	VBROADCASTI128 off+32(DX), Y2   \
	VBROADCASTI128 off+48(DX), Y3   \
	VBROADCASTI128 off+64(DX), Y4   \
	VBROADCASTI128 off+80(DX), Y5   \
	VBROADCASTI128 off+96(DX), Y6   \
	VBROADCASTI128 off+112(DX), Y7

// GF16STRIPTERM processes one whole strip (both 32-symbol halves) of
// one term: tables at off(DX), source strip at sreg. The high (even)
// bytes go to Y15 and the low (odd) bytes to Y14.
#define GF16STRIPTERM(sreg, off) \
	GF16TABS(off)                          \
	GF16DEINT(0, sreg, Y15, Y14, Y12, Y13) \
	GF16PLANARTERM(Y8, Y9)                 \
	GF16DEINT(64, sreg, Y15, Y14, Y12, Y13) \
	GF16PLANARTERM(Y10, Y11)

// The three AVX2 kernels share one loop shape: zero the accumulator
// planes, add every term's strip, and fold the planes into dst, high
// product plane into the even bytes. The 2- and 4-source kernels take
// srcs, an array of that many source pointers, and ts, as many
// contiguous nibble tables (stack arrays in the routing layer); strips
// counts 128-byte units and is at least 1.

// func gf16AddMul2BEAVX2(dst *byte, srcs **byte, strips int, ts *nib16)
// dst ^= c0*src0 ^ c1*src1 over strips*128 wire-order bytes.
TEXT ·gf16AddMul2BEAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ strips+16(FP), CX
	MOVQ ts+24(FP), DX

gf16addmul2be_loop:
	GF16ZEROACC
	GF16STRIPTERM(R8, 0)
	GF16STRIPTERM(R9, 128)
	GF16REINT(0, Y9, Y8, Y12, Y13)
	GF16REINT(64, Y11, Y10, Y12, Y13)
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	DECQ CX
	JNZ  gf16addmul2be_loop
	VZEROUPPER
	RET

// func gf16AddMul4BEAVX2(dst *byte, srcs **byte, strips int, ts *nib16)
// dst ^= c0*src0 ^ ... ^ c3*src3 over strips*128 wire-order bytes.
TEXT ·gf16AddMul4BEAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ strips+16(FP), CX
	MOVQ ts+24(FP), DX

gf16addmul4be_loop:
	GF16ZEROACC
	GF16STRIPTERM(R8, 0)
	GF16STRIPTERM(R9, 128)
	GF16STRIPTERM(R10, 256)
	GF16STRIPTERM(R11, 384)
	GF16REINT(0, Y9, Y8, Y12, Y13)
	GF16REINT(64, Y11, Y10, Y12, Y13)
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	ADDQ $128, R11
	DECQ CX
	JNZ  gf16addmul4be_loop
	VZEROUPPER
	RET

// func gf16AddMulPlanarBEAVX2(dst, src *byte, strips int, t *nib16)
// dst ^= c*src over strips*128 wire-order bytes. With one coefficient in
// play its eight tables are broadcast once and stay resident in Y0-Y7
// for the whole call, where the 2- and 4-source kernels re-broadcast
// them per strip.
TEXT ·gf16AddMulPlanarBEAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ strips+16(FP), CX
	MOVQ t+24(FP), DX
	GF16TABS(0)

gf16planarbe_loop:
	GF16ZEROACC
	GF16DEINT(0, SI, Y15, Y14, Y12, Y13)
	GF16PLANARTERM(Y8, Y9)
	GF16DEINT(64, SI, Y15, Y14, Y12, Y13)
	GF16PLANARTERM(Y10, Y11)
	GF16REINT(0, Y9, Y8, Y12, Y13)
	GF16REINT(64, Y11, Y10, Y12, Y13)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ CX
	JNZ  gf16planarbe_loop
	VZEROUPPER
	RET

// The GFNI wire-order kernel (see affine.go for the matrix layout).
// Each 32 wire bytes are shuffled in-lane to [8 high bytes | 8 low
// bytes] with deintPat; VGF2P8AFFINEQB against [Mhh | Mll] gives the
// direct products, against [Mhl | Mlh] the cross products, which belong
// to the other half of the lane. The two sums live in separate
// accumulators for the whole batch of terms; at the end of a strip the
// cross sum's halves are swapped (VPSHUFD), folded in, and reintPat
// restores wire order before dst is XORed in. Per term and strip: four
// loads, four shuffles, eight affine ops and eight XORs.
//
// Register budget: Y0-Y7 the accumulators (direct, cross) for the four
// 32-byte blocks of a strip, Y8-Y9 the term's matrices, Y10-Y12
// transient, Y14 reintPat, Y15 deintPat.

// reintPat interleaves a lane's two halves byte by byte: the inverse of
// deintPat.
DATA reintPat<>+0x00(SB)/8, $0x0b030a0209010800
DATA reintPat<>+0x08(SB)/8, $0x0f070e060d050c04
DATA reintPat<>+0x10(SB)/8, $0x0b030a0209010800
DATA reintPat<>+0x18(SB)/8, $0x0f070e060d050c04
GLOBL reintPat<>(SB), RODATA|NOPTR, $32

// GFNITERM accumulates one term's products for the 32 wire bytes at
// off(R11): direct into acc, cross into crs.
#define GFNITERM(off, acc, crs) \
	VMOVDQU        off(R11), Y10 \
	VPSHUFB        Y15, Y10, Y10 \
	VGF2P8AFFINEQB $0, Y8, Y10, Y11 \
	VGF2P8AFFINEQB $0, Y9, Y10, Y12 \
	VPXOR          Y11, acc, acc \
	VPXOR          Y12, crs, crs

// GFNIOUT folds one block's cross sum into its direct sum, restores
// wire order and XORs the result into dst at off(DI).
#define GFNIOUT(off, acc, crs) \
	VPSHUFD $0x4e, crs, crs   \
	VPXOR   crs, acc, acc     \
	VPSHUFB Y14, acc, acc     \
	VPXOR   off(DI), acc, acc \
	VMOVDQU acc, off(DI)

// func gf16AddMulBEGFNI(dst *byte, srcs **byte, ms *mat16, terms, strips int)
// dst ^= Σ c_t*src_t over strips*128 wire-order bytes, terms >= 1.
TEXT ·gf16AddMulBEGFNI(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), AX
	MOVQ ms+16(FP), DX
	MOVQ terms+24(FP), BX
	MOVQ strips+32(FP), CX
	VMOVDQU reintPat<>(SB), Y14
	VMOVDQU deintPat<>(SB), Y15
	XORQ SI, SI                   // strip offset into every source

gfni_strip:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ AX, R8                   // source pointer cursor
	MOVQ DX, R9                   // matrix cursor
	MOVQ BX, R10                  // terms left

gfni_term:
	MOVQ (R8), R11
	ADDQ SI, R11
	VBROADCASTI128 (R9), Y8       // [Mhh | Mll]
	VBROADCASTI128 16(R9), Y9     // [Mhl | Mlh]
	GFNITERM(0, Y0, Y1)
	GFNITERM(32, Y2, Y3)
	GFNITERM(64, Y4, Y5)
	GFNITERM(96, Y6, Y7)
	ADDQ $8, R8
	ADDQ $32, R9
	DECQ R10
	JNZ  gfni_term

	GFNIOUT(0, Y0, Y1)
	GFNIOUT(32, Y2, Y3)
	GFNIOUT(64, Y4, Y5)
	GFNIOUT(96, Y6, Y7)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  gfni_strip
	VZEROUPPER
	RET
