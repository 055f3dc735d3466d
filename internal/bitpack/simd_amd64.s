// Popcount and sign-pack micro-kernels for the packed 1-bit serving
// path. The XOR+popcount kernels are pure integer arithmetic, so every
// tier returns identical Hamming distances by construction. The AVX-512
// sign-pack kernel reads float32 activations, widens them exactly, and
// executes the exactly-rounded analytic rule of packSignWordsGo
// (multiply, floor, subtract, add, ordered compares) on eight lanes at a
// time, with constants broadcast from the same packConsts array the Go
// kernel reads — bit-identical output on every input, including NaN/Inf
// activations and signed zeros.

#include "textflag.h"

// hsumq reduces the 8-qword accumulator zmm into out+off(DI). Below 512
// bits it uses VEX (AVX2) encodings, so the AVX-512 tier needs neither
// AVX512DQ nor AVX512VL (VEXTRACTI64X2 would need both).
#define HSUMQ(accz, accy, accx, off) \
	VEXTRACTI64X4 $1, accz, Y1       \
	VPADDQ        Y1, accy, accy     \
	VEXTRACTI128  $1, accy, X1       \
	VPADDQ        X1, accx, accx     \
	VPSHUFD       $0xee, accx, X1    \
	VPADDQ        X1, accx, accx     \
	VMOVQ         accx, AX           \
	MOVQ          AX, off(DI)

// hsumq2 reduces a 4-qword AVX2 accumulator ymm into out+off(DI).
#define HSUMQ2(accy, accx, off) \
	VEXTRACTI128 $1, accy, X1    \
	VPADDQ       X1, accx, accx  \
	VPSHUFD      $0xee, accx, X1 \
	VPADDQ       X1, accx, accx  \
	VMOVQ        accx, AX        \
	MOVQ         AX, off(DI)

// mulaStep computes per-byte popcounts of src XOR (cls) via the VPSHUFB
// nibble LUT (Y8), masks in Y9, zero in Y10, and accumulates the four
// qword partial sums into acc.
#define MULASTEP(cls, acc) \
	VPXOR   (cls), Y0, Y1  \
	VPAND   Y9, Y1, Y2     \
	VPSRLW  $4, Y1, Y3     \
	VPAND   Y9, Y3, Y3     \
	VPSHUFB Y2, Y8, Y2     \
	VPSHUFB Y3, Y8, Y3     \
	VPADDB  Y3, Y2, Y2     \
	VPSADBW Y10, Y2, Y2    \
	VPADDQ  Y2, acc, acc

// func xorPopcntAVX512(q, c *uint64, n int, out *int64)
// n ≥ 8 and n%8 == 0 (the Matrix stride contract).
TEXT ·xorPopcntAVX512(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ c+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ out+24(FP), DI
	VPXORQ Z4, Z4, Z4
	SHRQ   $3, CX

xp1loop:
	VMOVDQU64 (SI), Z2
	VPXORQ    (DX), Z2, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z4, Z4
	ADDQ      $64, SI
	ADDQ      $64, DX
	DECQ      CX
	JNZ       xp1loop

	HSUMQ(Z4, Y4, X4, 0)
	VZEROUPPER
	RET

// func xorPopcnt4AVX512(q, c0, c1, c2, c3 *uint64, n int, out *[4]int64)
// The 1×4 tile: the query chunk is loaded once per iteration and XOR-
// popcounted against four class rows. n ≥ 8 and n%8 == 0.
TEXT ·xorPopcnt4AVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ c0+8(FP), R8
	MOVQ c1+16(FP), R9
	MOVQ c2+24(FP), R10
	MOVQ c3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	SHRQ   $3, CX

xp4loop:
	VMOVDQU64 (SI), Z0
	VPXORQ    (R8), Z0, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z4, Z4
	VPXORQ    (R9), Z0, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z5, Z5
	VPXORQ    (R10), Z0, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z6, Z6
	VPXORQ    (R11), Z0, Z2
	VPOPCNTQ  Z2, Z2
	VPADDQ    Z2, Z7, Z7
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, R9
	ADDQ      $64, R10
	ADDQ      $64, R11
	DECQ      CX
	JNZ       xp4loop

	HSUMQ(Z4, Y4, X4, 0)
	HSUMQ(Z5, Y5, X5, 8)
	HSUMQ(Z6, Y6, X6, 16)
	HSUMQ(Z7, Y7, X7, 24)
	VZEROUPPER
	RET

// func xorPopcntAVX2(q, c *uint64, n int, lut *[32]byte, out *int64)
// Mula's VPSHUFB nibble-LUT popcount with a VPSADBW qword reduction per
// 4-word chunk. n ≥ 4 and n%4 == 0.
TEXT ·xorPopcntAVX2(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ c+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ lut+24(FP), BX
	MOVQ out+32(FP), DI
	VBROADCASTI128 (BX), Y8
	VBROADCASTI128 16(BX), Y9
	VPXOR          Y10, Y10, Y10
	VPXOR          Y11, Y11, Y11
	SHRQ           $2, CX

xa1loop:
	VMOVDQU (SI), Y0
	MULASTEP(DX, Y11)
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     xa1loop

	HSUMQ2(Y11, X11, 0)
	VZEROUPPER
	RET

// func xorPopcnt4AVX2(q, c0, c1, c2, c3 *uint64, n int, lut *[32]byte, out *[4]int64)
// The AVX2 1×4 tile. n ≥ 4 and n%4 == 0.
TEXT ·xorPopcnt4AVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), SI
	MOVQ c0+8(FP), R8
	MOVQ c1+16(FP), R9
	MOVQ c2+24(FP), R10
	MOVQ c3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ lut+48(FP), BX
	MOVQ out+56(FP), DI
	VBROADCASTI128 (BX), Y8
	VBROADCASTI128 16(BX), Y9
	VPXOR          Y10, Y10, Y10
	VPXOR          Y11, Y11, Y11
	VPXOR          Y12, Y12, Y12
	VPXOR          Y13, Y13, Y13
	VPXOR          Y14, Y14, Y14
	SHRQ           $2, CX

xa4loop:
	VMOVDQU (SI), Y0
	MULASTEP(R8, Y11)
	MULASTEP(R9, Y12)
	MULASTEP(R10, Y13)
	MULASTEP(R11, Y14)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    CX
	JNZ     xa4loop

	HSUMQ2(Y11, X11, 0)
	HSUMQ2(Y12, X12, 8)
	HSUMQ2(Y13, X13, 16)
	HSUMQ2(Y14, X14, 24)
	VZEROUPPER
	RET

// func packSignsAVX512(z *float32, fc *float64, groups int, consts *[4]float64, out *uint64)
// Packs `groups` full 64-element words of activation signs: per lane
//	f = frac(z·inv2π); g = frac(f + fc)
//	bit = ((f ≤ ½) == (g ≤ ¼ ∨ g ≥ ¾)) ∨ (z == 0)
// Each chunk loads eight float32 and widens them with VCVTPS2PD, which is
// exact (NaN stays NaN), so every lane sees the float64 that the Go
// widening float64(v) gives. Eight lanes per compare round; eight rounds
// build one output word via the rotate-in-from-the-top trick (chunk j
// lands at bits 8j..8j+7).
TEXT ·packSignsAVX512(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), SI
	MOVQ fc+8(FP), DX
	MOVQ groups+16(FP), CX
	MOVQ consts+24(FP), BX
	MOVQ out+32(FP), DI
	VBROADCASTSD (BX), Z9    // 1/(2π)
	VBROADCASTSD 8(BX), Z10  // 0.5
	VBROADCASTSD 16(BX), Z11 // 0.25
	VBROADCASTSD 24(BX), Z12 // 0.75
	VPXORQ       Z13, Z13, Z13

psword:
	XORQ R13, R13
	MOVQ $8, R8

pschunk:
	VCVTPS2PD   (SI), Z1        // z, widened exactly
	VMULPD      Z9, Z1, Z2      // f0 = z·inv2π
	VRNDSCALEPD $1, Z2, Z3      // floor(f0)
	VSUBPD      Z3, Z2, Z2      // f
	VADDPD      (DX), Z2, Z4    // g0 = f + fc
	VRNDSCALEPD $1, Z4, Z5      // floor(g0)
	VSUBPD      Z5, Z4, Z4      // g
	VCMPPD      $0x12, Z10, Z2, K1 // LE_OQ: f ≤ 0.5
	VCMPPD      $0x12, Z11, Z4, K2 // LE_OQ: g ≤ 0.25
	VCMPPD      $0x1d, Z12, Z4, K3 // GE_OQ: g ≥ 0.75
	VCMPPD      $0x00, Z13, Z1, K4 // EQ_OQ: z == 0
	KORW        K3, K2, K2
	KXNORW      K2, K1, K5
	KORW        K4, K5, K5
	KMOVW       K5, AX
	SHLQ        $56, AX
	SHRQ        $8, R13
	ORQ         AX, R13
	ADDQ        $32, SI
	ADDQ        $64, DX
	DECQ        R8
	JNZ         pschunk

	MOVQ R13, (DI)
	ADDQ $8, DI
	DECQ CX
	JNZ  psword

	VZEROUPPER
	RET
