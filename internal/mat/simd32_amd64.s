// Float32 FMA micro-kernels for the packed-encode projection GEMM. Each
// kernel accumulates 16 strided single-precision FMA lanes per output
// element — one ZMM accumulator on the AVX-512 tier, two YMM on AVX2 —
// handles the sub-group tail with a masked partial step, and finishes
// with the laneSum32 horizontal reduction (512→256→128-bit folds, then
// the float64 kernels' (x0+x2)+(x1+x3) order). The 1×4 kernels reduce
// each accumulator on its own (HSUM32Z, HSUM32Y). The 2×8 tile reduces
// its sixteen accumulators together: two VSHUFF32X4 levels (FOLD32,
// FOLD16) and two VSHUFPS levels, 30 shuffles and 15 adds, leave all
// sixteen dots in one ZMM, each added in laneSum32's order with the same
// operand first, against 64 shuffles, 64 adds and 16 scalar stores for
// sixteen HSUM32Z. The pure-Go lane kernels in f32.go reproduce every
// output bitwise via fma32, signed zeros included: as in the float64
// kernels, a tail step leaves its closed lanes untouched, by an
// opmask-merged FMA on the AVX-512 tier and a blend on AVX2.

#include "textflag.h"

// HSUM32Z reduces a ZMM accumulator into out+off in laneSum32 order:
// fold 512→256 (l[j]+l[j+8]), 256→128 (m[j]+m[j+4]), then
// (x0+x2)+(x1+x3).
#define HSUM32Z(accz, accy, accx, tmpy, tmpx, off) \
	VEXTRACTF64X4 $1, accz, tmpy    \
	VADDPS        tmpy, accy, accy  \
	VEXTRACTF128  $1, accy, tmpx    \
	VADDPS        tmpx, accx, accx  \
	VSHUFPD       $1, accx, accx, tmpx \
	VADDPS        tmpx, accx, accx  \
	VMOVSHDUP     accx, tmpx        \
	VADDSS        tmpx, accx, accx  \
	VMOVSS        accx, off(DI)

// TAILFMA32 folds the masked tail step b·a into acc on the lanes mask
// opens and leaves the closed lanes as they were (an FMA with the zeros
// of the masked loads would turn a -0 lane into +0). b is clobbered.
#define TAILFMA32(b, a, acc, mask) \
	VFMADD213PS acc, a, b \
	VBLENDVPS   mask, b, acc, acc

// HSUM32Y reduces a lo/hi YMM accumulator pair the same way: the lo+hi
// add IS the 512→256 fold, so both tiers reduce in the identical order.
#define HSUM32Y(lo, hi, lox, tmpx, off) \
	VADDPS       hi, lo, lo         \
	VEXTRACTF128 $1, lo, tmpx       \
	VADDPS       tmpx, lox, lox     \
	VSHUFPD      $1, lox, lox, tmpx \
	VADDPS       tmpx, lox, lox     \
	VMOVSHDUP    lox, tmpx          \
	VADDSS       tmpx, lox, lox     \
	VMOVSS       lox, off(DI)

// func dotBatch4F32AVX512(a, b0, b1, b2, b3 *float32, groups, tail int, out *[4]float32)
// The complete AVX-512 1×4 micro-kernel: groups full 16-element FMA
// steps, an opmask-gated partial step for the tail (0..15), and the
// horizontal reduction. out[r] receives the finished lane dot of a with
// B row r.
TEXT ·dotBatch4F32AVX512(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ groups+40(FP), CX
	MOVQ tail+48(FP), BX
	MOVQ out+56(FP), DI
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	TESTQ CX, CX
	JZ    zb4tail

zb4loop:
	VMOVUPS     (SI), Z8
	VFMADD231PS (R8), Z8, Z0
	VFMADD231PS (R9), Z8, Z1
	VFMADD231PS (R10), Z8, Z2
	VFMADD231PS (R11), Z8, Z3
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	DECQ        CX
	JNZ         zb4loop

zb4tail:
	TESTQ BX, BX
	JZ    zb4done
	MOVL  $1, AX
	MOVQ  BX, CX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	VMOVUPS.Z   (SI), K1, Z8
	VMOVUPS.Z   (R8), K1, Z9
	VFMADD231PS Z9, Z8, K1, Z0
	VMOVUPS.Z   (R9), K1, Z9
	VFMADD231PS Z9, Z8, K1, Z1
	VMOVUPS.Z   (R10), K1, Z9
	VFMADD231PS Z9, Z8, K1, Z2
	VMOVUPS.Z   (R11), K1, Z9
	VFMADD231PS Z9, Z8, K1, Z3

zb4done:
	HSUM32Z(Z0, Y0, X0, Y14, X15, 0)
	HSUM32Z(Z1, Y1, X1, Y14, X15, 4)
	HSUM32Z(Z2, Y2, X2, Y14, X15, 8)
	HSUM32Z(Z3, Y3, X3, Y14, X15, 12)
	VZEROUPPER
	RET

// FOLD32 is the first level of the merged reduction: it joins the
// 16-lane accumulators lo and hi into dst = (lo.m, hi.m), where m is
// laneSum32's first fold l[j]+l[j+8] (j < 8) of each: VSHUFF32X4 gathers
// the 128-bit chunks 0,1 and 2,3 of both, and one add folds them.
#define FOLD32(lo, hi, dst) \
	VSHUFF32X4 $0x44, hi, lo, dst \
	VSHUFF32X4 $0xee, hi, lo, Z15 \
	VADDPS     Z15, dst, dst

// FOLD16 is the second level: from p = (a.m, b.m) and q = (c.m, d.m) it
// forms dst = (a.x, b.x, c.x, d.x), x[j] = m[j]+m[j+4] (j < 4), one chunk
// per accumulator.
#define FOLD16(p, q, dst) \
	VSHUFF32X4 $0x88, q, p, dst \
	VSHUFF32X4 $0xdd, q, p, Z15 \
	VADDPS     Z15, dst, dst

// STEP28 is one B row's share of a 2×8 FMA step: it loads the row's 16
// lanes at (b)(AX*1) into breg and folds them times A rows 0 and 1 (Z0,
// Z1) into acc0 and acc1.
#define STEP28(b, breg, acc0, acc1) \
	VMOVUPS     (b)(AX*1), breg \
	VFMADD231PS breg, Z0, acc0  \
	VFMADD231PS breg, Z1, acc1

// TAIL28 is STEP28 for the tail step at (b): loads zeroed past the tail,
// FMAs merged under K1, so the closed lanes keep their values.
#define TAIL28(b, breg, acc0, acc1) \
	VMOVUPS.Z   (b), K1, breg      \
	VFMADD231PS breg, Z0, K1, acc0 \
	VFMADD231PS breg, Z1, K1, acc1

// func dot2x8F32AVX512(a *float32, lda, pairs int, b *[8]*float32, groups, tail int, c *float32, ldc, cols int, first bool)
// The AVX-512 2×8 register tile, walked over pairs row pairs: A rows
// 2p and 2p+1 (lda floats apart, from a) against the eight B rows b[0..7]
// in 16 ZMM accumulators, groups full 16-lane FMA steps and an
// opmask-merged partial step for the tail (0..15), 16 FMAs per 10
// loads. Accumulator Z16+4(c%4)+2r+c/4 holds A row r against B row c, so
// the merged reduction — FOLD32 on the eight accumulator pairs, FOLD16 on
// the four results, then two VSHUFPS levels finishing (x0+x2)+(x1+x3)
// within each chunk — leaves the pair's sixteen dots in one ZMM in output
// order: A row 0 against b[0..7] in the low half, row 1 in the high half.
// Every output is added in laneSum32's order with the same operands
// first. Columns [0, cols) of the halves go to c rows 2p and 2p+1 (ldc
// floats apart) through opmask-masked stores: stored when first, added to
// the stored value (first operand) otherwise.
TEXT ·dot2x8F32AVX512(SB), NOSPLIT, $0-73
	MOVQ b+24(FP), AX
	MOVQ 0(AX), BX
	MOVQ 8(AX), DI
	MOVQ 16(AX), R8
	MOVQ 24(AX), R9
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ tail+40(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1 // the tail lanes
	MOVQ cols+64(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2 // the stored columns
	// Every row pointer moves to its tail, and the FMA loop runs a
	// negative byte offset up to zero.
	MOVQ groups+32(FP), AX
	SHLQ $6, AX
	ADDQ AX, BX
	ADDQ AX, DI
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	MOVQ a+0(FP), SI
	ADDQ AX, SI
	MOVQ lda+8(FP), DX
	LEAQ (SI)(DX*4), DX
	MOVQ c+48(FP), CX

z28pair:
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ   groups+32(FP), AX
	SHLQ   $6, AX
	NEGQ   AX
	JZ     z28tail

z28loop:
	VMOVUPS (SI)(AX*1), Z0
	VMOVUPS (DX)(AX*1), Z1
	STEP28(BX, Z2, Z16, Z18)
	STEP28(DI, Z3, Z20, Z22)
	STEP28(R8, Z4, Z24, Z26)
	STEP28(R9, Z5, Z28, Z30)
	STEP28(R10, Z6, Z17, Z19)
	STEP28(R11, Z7, Z21, Z23)
	STEP28(R12, Z8, Z25, Z27)
	STEP28(R13, Z9, Z29, Z31)
	ADDQ    $64, AX
	JNZ     z28loop

z28tail:
	KORTESTW K1, K1
	JZ       z28sum
	VMOVUPS.Z (SI), K1, Z0
	VMOVUPS.Z (DX), K1, Z1
	TAIL28(BX, Z2, Z16, Z18)
	TAIL28(DI, Z3, Z20, Z22)
	TAIL28(R8, Z4, Z24, Z26)
	TAIL28(R9, Z5, Z28, Z30)
	TAIL28(R10, Z6, Z17, Z19)
	TAIL28(R11, Z7, Z21, Z23)
	TAIL28(R12, Z8, Z25, Z27)
	TAIL28(R13, Z9, Z29, Z31)

z28sum:
	FOLD32(Z16, Z17, Z0)
	FOLD32(Z18, Z19, Z1)
	FOLD32(Z20, Z21, Z2)
	FOLD32(Z22, Z23, Z3)
	FOLD32(Z24, Z25, Z4)
	FOLD32(Z26, Z27, Z5)
	FOLD32(Z28, Z29, Z6)
	FOLD32(Z30, Z31, Z7)
	FOLD16(Z0, Z1, Z8)
	FOLD16(Z2, Z3, Z9)
	FOLD16(Z4, Z5, Z10)
	FOLD16(Z6, Z7, Z11)
	VSHUFPS $0x44, Z9, Z8, Z12   // (x0, x1) of two accumulators per chunk
	VSHUFPS $0xee, Z9, Z8, Z15   // (x2, x3)
	VADDPS  Z15, Z12, Z12        // (x0+x2, x1+x3)
	VSHUFPS $0x44, Z11, Z10, Z13
	VSHUFPS $0xee, Z11, Z10, Z15
	VADDPS  Z15, Z13, Z13
	VSHUFPS $0x88, Z13, Z12, Z0  // x0+x2 of four accumulators per chunk
	VSHUFPS $0xdd, Z13, Z12, Z15 // x1+x3
	VADDPS  Z15, Z0, Z0          // (x0+x2)+(x1+x3)
	VEXTRACTF64X4 $1, Z0, Y1
	MOVQ    ldc+56(FP), AX
	SHLQ    $2, AX
	CMPB    first+72(FP), $0
	JNE     z28store
	VMOVUPS.Z (CX), K2, Y2
	VADDPS    Y0, Y2, Y0
	VMOVUPS.Z (CX)(AX*1), K2, Y3
	VADDPS    Y1, Y3, Y1

z28store:
	VMOVUPS Y0, K2, (CX)
	VMOVUPS Y1, K2, (CX)(AX*1)
	LEAQ    (CX)(AX*2), CX
	MOVQ    lda+8(FP), AX
	SHLQ    $3, AX
	ADDQ    AX, SI
	ADDQ    AX, DX
	DECQ    pairs+16(FP)
	JNZ     z28pair
	VZEROUPPER
	RET

// func dotBatch4F32AVX2(a, b0, b1, b2, b3 *float32, groups, tail int, masks *[240]int32, out *[4]float32)
// The AVX2 1×4 micro-kernel: each 16-lane accumulator is a lo/hi YMM
// pair (lanes 0–7 and 8–15), the tail loads through VMASKMOVPS masks,
// and the lo+hi add of the reduction is exactly the AVX-512 tier's
// 512→256 fold — same bits on either tier.
TEXT ·dotBatch4F32AVX2(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ groups+40(FP), CX
	MOVQ tail+48(FP), BX
	MOVQ masks+56(FP), AX
	MOVQ out+64(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ    yb4tail

yb4loop:
	VMOVUPS     (SI), Y8
	VMOVUPS     32(SI), Y9
	VMOVUPS     (R8), Y10
	VMOVUPS     32(R8), Y11
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y9, Y1
	VMOVUPS     (R9), Y10
	VMOVUPS     32(R9), Y11
	VFMADD231PS Y10, Y8, Y2
	VFMADD231PS Y11, Y9, Y3
	VMOVUPS     (R10), Y10
	VMOVUPS     32(R10), Y11
	VFMADD231PS Y10, Y8, Y4
	VFMADD231PS Y11, Y9, Y5
	VMOVUPS     (R11), Y10
	VMOVUPS     32(R11), Y11
	VFMADD231PS Y10, Y8, Y6
	VFMADD231PS Y11, Y9, Y7
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	DECQ        CX
	JNZ         yb4loop

yb4tail:
	TESTQ BX, BX
	JZ    yb4done
	DECQ  BX
	SHLQ  $6, BX
	VMOVUPS     (AX)(BX*1), Y12
	VMOVUPS     32(AX)(BX*1), Y13
	VMASKMOVPS  (SI), Y12, Y8
	VMASKMOVPS  32(SI), Y13, Y9
	VMASKMOVPS  (R8), Y12, Y10
	VMASKMOVPS  32(R8), Y13, Y11
	TAILFMA32(Y10, Y8, Y0, Y12)
	TAILFMA32(Y11, Y9, Y1, Y13)
	VMASKMOVPS  (R9), Y12, Y10
	VMASKMOVPS  32(R9), Y13, Y11
	TAILFMA32(Y10, Y8, Y2, Y12)
	TAILFMA32(Y11, Y9, Y3, Y13)
	VMASKMOVPS  (R10), Y12, Y10
	VMASKMOVPS  32(R10), Y13, Y11
	TAILFMA32(Y10, Y8, Y4, Y12)
	TAILFMA32(Y11, Y9, Y5, Y13)
	VMASKMOVPS  (R11), Y12, Y10
	VMASKMOVPS  32(R11), Y13, Y11
	TAILFMA32(Y10, Y8, Y6, Y12)
	TAILFMA32(Y11, Y9, Y7, Y13)

yb4done:
	HSUM32Y(Y0, Y1, X0, X15, 0)
	HSUM32Y(Y2, Y3, X2, X15, 4)
	HSUM32Y(Y4, Y5, X4, X15, 8)
	HSUM32Y(Y6, Y7, X6, X15, 12)
	VZEROUPPER
	RET
