//go:build amd64 && !purego

#include "textflag.h"

// block16 computes a whole chacha8 refill, the 16 ChaCha8 blocks of one
// seed (counters 0..15), in one call: block j sits in dword lane j of
// sixteen ZMM registers, Z0..Z15 holding state words 0..15. It writes
// exactly the bytes of the four 4-way block calls refill makes without
// it (counters 0, 4, 8 and 12): word w of blocks 4i..4i+3 is lane group
// i of Zw, stored at byte 256*i + 16*w of buf. As in chacha8rand, only
// the seed words (4..11) are added back after the rounds.
//
// Only Z0..Z15 are touched, and the final VZEROUPPER clears their upper
// bits, so what is left behind is X0..X15, as after the SSE2 block. The
// seed is added back from memory by broadcast (.BCST) rather than from
// copies in Z16..Z31, which VZEROUPPER would leave set.

// QR is the ChaCha quarter round on the lanes of A, B, C and D.
#define QR(A, B, C, D) \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $16, D, D; \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $12, B, B; \
	VPADDD B, A, A; VPXORD A, D, D; VPROLD $8, D, D;  \
	VPADDD D, C, C; VPXORD C, B, B; VPROLD $7, B, B

// STORE writes word W of all 16 blocks, held in Z, to buf (BX).
#define STORE(W, Z) \
	VEXTRACTI32X4 $0, Z, (16*W)(BX);     \
	VEXTRACTI32X4 $1, Z, (256+16*W)(BX); \
	VEXTRACTI32X4 $2, Z, (512+16*W)(BX); \
	VEXTRACTI32X4 $3, Z, (768+16*W)(BX)

// func block16(seed *[4]uint64, buf *[128]uint64)
TEXT ·block16(SB), NOSPLIT, $0-16
	MOVQ seed+0(FP), AX
	MOVQ buf+8(FP), BX

	// Constants ("expand 32-byte k"), seed, counters 0..15, zeros.
	VPBROADCASTD sigma<>+0(SB), Z0
	VPBROADCASTD sigma<>+4(SB), Z1
	VPBROADCASTD sigma<>+8(SB), Z2
	VPBROADCASTD sigma<>+12(SB), Z3
	VPBROADCASTD 0(AX), Z4
	VPBROADCASTD 4(AX), Z5
	VPBROADCASTD 8(AX), Z6
	VPBROADCASTD 12(AX), Z7
	VPBROADCASTD 16(AX), Z8
	VPBROADCASTD 20(AX), Z9
	VPBROADCASTD 24(AX), Z10
	VPBROADCASTD 28(AX), Z11
	VMOVDQU32    counters<>(SB), Z12
	VPXORD       Z13, Z13, Z13
	VPXORD       Z14, Z14, Z14
	VPXORD       Z15, Z15, Z15

	// 4 double rounds: columns, then diagonals.
	MOVL $4, DX

loop:
	QR(Z0, Z4, Z8, Z12)
	QR(Z1, Z5, Z9, Z13)
	QR(Z2, Z6, Z10, Z14)
	QR(Z3, Z7, Z11, Z15)
	QR(Z0, Z5, Z10, Z15)
	QR(Z1, Z6, Z11, Z12)
	QR(Z2, Z7, Z8, Z13)
	QR(Z3, Z4, Z9, Z14)
	DECL DX
	JNZ  loop

	VPADDD.BCST 0(AX), Z4, Z4
	VPADDD.BCST 4(AX), Z5, Z5
	VPADDD.BCST 8(AX), Z6, Z6
	VPADDD.BCST 12(AX), Z7, Z7
	VPADDD.BCST 16(AX), Z8, Z8
	VPADDD.BCST 20(AX), Z9, Z9
	VPADDD.BCST 24(AX), Z10, Z10
	VPADDD.BCST 28(AX), Z11, Z11

	STORE(0, Z0)
	STORE(1, Z1)
	STORE(2, Z2)
	STORE(3, Z3)
	STORE(4, Z4)
	STORE(5, Z5)
	STORE(6, Z6)
	STORE(7, Z7)
	STORE(8, Z8)
	STORE(9, Z9)
	STORE(10, Z10)
	STORE(11, Z11)
	STORE(12, Z12)
	STORE(13, Z13)
	STORE(14, Z14)
	STORE(15, Z15)

	VZEROUPPER
	RET

DATA sigma<>+0(SB)/4, $0x61707865
DATA sigma<>+4(SB)/4, $0x3320646e
DATA sigma<>+8(SB)/4, $0x79622d32
DATA sigma<>+12(SB)/4, $0x6b206574
GLOBL sigma<>(SB), RODATA|NOPTR, $16

DATA counters<>+0(SB)/8, $0x0000000100000000
DATA counters<>+8(SB)/8, $0x0000000300000002
DATA counters<>+16(SB)/8, $0x0000000500000004
DATA counters<>+24(SB)/8, $0x0000000700000006
DATA counters<>+32(SB)/8, $0x0000000900000008
DATA counters<>+40(SB)/8, $0x0000000b0000000a
DATA counters<>+48(SB)/8, $0x0000000d0000000c
DATA counters<>+56(SB)/8, $0x0000000f0000000e
GLOBL counters<>(SB), RODATA|NOPTR, $64
