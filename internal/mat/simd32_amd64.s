// Float32 FMA micro-kernels for the packed-encode projection GEMM. Each
// kernel accumulates 16 strided single-precision FMA lanes per output
// element — one ZMM accumulator on the AVX-512 tier, two YMM on AVX2 —
// handles the sub-group tail with a masked partial step, and finishes
// with the laneSum32 horizontal reduction (512→256→128-bit folds, then
// the float64 kernels' (x0+x2)+(x1+x3) order). The pure-Go lane kernels
// in f32.go reproduce every output bitwise via fma32, signed zeros
// included: as in the float64 kernels, a tail step leaves its closed
// lanes untouched, by an opmask-merged FMA on the AVX-512 tier and a
// blend on AVX2.

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

// func dot2x4F32AVX512(a0, a1, b0, b1, b2, b3 *float32, groups, tail int, out *[8]float32)
// The complete AVX-512 2×4 register tile: two A rows against four B
// rows, eight output elements, 128 FMA lanes in flight, masked tail,
// horizontal reduction. out layout: a0·b0, a0·b1, a0·b2, a0·b3, a1·b0,
// ..., a1·b3.
TEXT ·dot2x4F32AVX512(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DX
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ groups+48(FP), CX
	MOVQ tail+56(FP), BX
	MOVQ out+64(FP), DI
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	TESTQ CX, CX
	JZ    z24tail

z24loop:
	VMOVUPS     (SI), Z8
	VMOVUPS     (DX), Z9
	VMOVUPS     (R8), Z10
	VFMADD231PS Z10, Z8, Z0
	VFMADD231PS Z10, Z9, Z4
	VMOVUPS     (R9), Z11
	VFMADD231PS Z11, Z8, Z1
	VFMADD231PS Z11, Z9, Z5
	VMOVUPS     (R10), Z10
	VFMADD231PS Z10, Z8, Z2
	VFMADD231PS Z10, Z9, Z6
	VMOVUPS     (R11), Z11
	VFMADD231PS Z11, Z8, Z3
	VFMADD231PS Z11, Z9, Z7
	ADDQ        $64, SI
	ADDQ        $64, DX
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	DECQ        CX
	JNZ         z24loop

z24tail:
	TESTQ BX, BX
	JZ    z24done
	MOVL  $1, AX
	MOVQ  BX, CX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	VMOVUPS.Z   (SI), K1, Z8
	VMOVUPS.Z   (DX), K1, Z9
	VMOVUPS.Z   (R8), K1, Z10
	VFMADD231PS Z10, Z8, K1, Z0
	VFMADD231PS Z10, Z9, K1, Z4
	VMOVUPS.Z   (R9), K1, Z11
	VFMADD231PS Z11, Z8, K1, Z1
	VFMADD231PS Z11, Z9, K1, Z5
	VMOVUPS.Z   (R10), K1, Z10
	VFMADD231PS Z10, Z8, K1, Z2
	VFMADD231PS Z10, Z9, K1, Z6
	VMOVUPS.Z   (R11), K1, Z11
	VFMADD231PS Z11, Z8, K1, Z3
	VFMADD231PS Z11, Z9, K1, Z7

z24done:
	HSUM32Z(Z0, Y0, X0, Y14, X15, 0)
	HSUM32Z(Z1, Y1, X1, Y14, X15, 4)
	HSUM32Z(Z2, Y2, X2, Y14, X15, 8)
	HSUM32Z(Z3, Y3, X3, Y14, X15, 12)
	HSUM32Z(Z4, Y4, X4, Y14, X15, 16)
	HSUM32Z(Z5, Y5, X5, Y14, X15, 20)
	HSUM32Z(Z6, Y6, X6, Y14, X15, 24)
	HSUM32Z(Z7, Y7, X7, Y14, X15, 28)
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
