// Float64 micro-kernels for the blocked A·Bᵀ product (AVX2+FMA 1×4 and
// 2×4 tiles, the AVX-512 4×4 tile and the 8×4 tile over packed A) and the
// AVX-512 RBF epilogue. Each GEMM kernel accumulates 4 strided FMA lanes
// per output element, handles the sub-group tail with a masked partial
// step, and finishes with the horizontal reduction — one call returns
// finished dot products, so the per-call overhead is a handful of
// instructions. The pure-Go lane kernels in kernels.go reproduce every
// output bitwise (see laneDot), signed zeros included: a tail step leaves
// its closed lanes untouched, by a blend on the AVX2 tiles and an
// opmask-merged FMA on the AVX-512 ones (an FMA with zeros would turn a
// -0 lane into +0).

#include "textflag.h"

// hsum reduces the accumulator ymm into out+off: (l0+l2) + (l1+l3) — the
// exact laneSum order of kernels.go.
#define HSUM(acc, accx, tmp, off) \
	VEXTRACTF128 $1, acc, tmp     \
	VADDPD       tmp, accx, accx  \
	VSHUFPD      $1, accx, accx, tmp \
	VADDSD       tmp, accx, accx  \
	VMOVSD       accx, off(DI)

// TAILFMA folds the masked tail step b·a into acc on the lanes mask
// opens and leaves the closed lanes as they were: b becomes a·b+acc, and
// a blend takes it only where mask is set. (An FMA with the zeros of the
// masked loads would turn a -0 lane into +0.) b is clobbered.
#define TAILFMA(b, a, acc, mask) \
	VFMADD213PD acc, a, b \
	VBLENDVPD   mask, b, acc, acc

// func dotBatch4AVX(a, b0, b1, b2, b3 *float64, groups, tail int, masks *[12]int64, out *[4]float64)
// The complete 1×4 micro-kernel: groups full 4-element FMA steps, a masked
// partial step for the tail (tail in 0..3), and the horizontal reduction.
// out[r] receives the finished lane dot of a with B row r.
TEXT ·dotBatch4AVX(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ groups+40(FP), CX
	MOVQ tail+48(FP), BX
	MOVQ masks+56(FP), AX
	MOVQ out+64(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ    db4tail

db4loop:
	VMOVUPD     (SI), Y4
	VFMADD231PD (R8), Y4, Y0
	VFMADD231PD (R9), Y4, Y1
	VFMADD231PD (R10), Y4, Y2
	VFMADD231PD (R11), Y4, Y3
	ADDQ        $32, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	DECQ        CX
	JNZ         db4loop

db4tail:
	TESTQ BX, BX
	JZ    db4done
	DECQ  BX
	SHLQ  $5, BX
	VMOVUPD     (AX)(BX*1), Y14
	VMASKMOVPD  (SI), Y14, Y4
	VMASKMOVPD  (R8), Y14, Y5
	TAILFMA(Y5, Y4, Y0, Y14)
	VMASKMOVPD  (R9), Y14, Y5
	TAILFMA(Y5, Y4, Y1, Y14)
	VMASKMOVPD  (R10), Y14, Y5
	TAILFMA(Y5, Y4, Y2, Y14)
	VMASKMOVPD  (R11), Y14, Y5
	TAILFMA(Y5, Y4, Y3, Y14)

db4done:
	HSUM(Y0, X0, X8, 0)
	HSUM(Y1, X1, X8, 8)
	HSUM(Y2, X2, X8, 16)
	HSUM(Y3, X3, X8, 24)
	VZEROUPPER
	RET

// func dot2x4AVX(a0, a1, b0, b1, b2, b3 *float64, groups, tail int, masks *[12]int64, out *[8]float64)
// The complete 2×4 register tile: two A rows against four B rows, eight
// output elements, 32 FMA lanes in flight, masked tail, horizontal
// reduction. out layout: a0·b0, a0·b1, a0·b2, a0·b3, a1·b0, ..., a1·b3.
TEXT ·dot2x4AVX(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DX
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ groups+48(FP), CX
	MOVQ tail+56(FP), BX
	MOVQ masks+64(FP), AX
	MOVQ out+72(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ    d24tail

d24loop:
	VMOVUPD     (SI), Y8
	VMOVUPD     (DX), Y9
	VMOVUPD     (R8), Y10
	VMOVUPD     (R9), Y11
	VMOVUPD     (R10), Y12
	VMOVUPD     (R11), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ        $32, SI
	ADDQ        $32, DX
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	DECQ        CX
	JNZ         d24loop

d24tail:
	TESTQ BX, BX
	JZ    d24done
	DECQ  BX
	SHLQ  $5, BX
	VMOVUPD     (AX)(BX*1), Y14
	VMASKMOVPD  (SI), Y14, Y8
	VMASKMOVPD  (DX), Y14, Y9
	VMASKMOVPD  (R8), Y14, Y10
	VMASKMOVPD  (R9), Y14, Y11
	VMASKMOVPD  (R10), Y14, Y12
	VMASKMOVPD  (R11), Y14, Y13
	VMOVAPD     Y10, Y15
	TAILFMA(Y15, Y8, Y0, Y14)
	TAILFMA(Y10, Y9, Y4, Y14)
	VMOVAPD     Y11, Y15
	TAILFMA(Y15, Y8, Y1, Y14)
	TAILFMA(Y11, Y9, Y5, Y14)
	VMOVAPD     Y12, Y15
	TAILFMA(Y15, Y8, Y2, Y14)
	TAILFMA(Y12, Y9, Y6, Y14)
	VMOVAPD     Y13, Y15
	TAILFMA(Y15, Y8, Y3, Y14)
	TAILFMA(Y13, Y9, Y7, Y14)

d24done:
	HSUM(Y0, X0, X8, 0)
	HSUM(Y1, X1, X8, 8)
	HSUM(Y2, X2, X8, 16)
	HSUM(Y3, X3, X8, 24)
	HSUM(Y4, X4, X8, 32)
	HSUM(Y5, X5, X8, 40)
	HSUM(Y6, X6, X8, 48)
	HSUM(Y7, X7, X8, 56)
	VZEROUPPER
	RET

// HSUM2 reduces a ZMM accumulator holding the lanes of two outputs (the
// low four lanes one output, the high four the other) into out+lo and
// out+hi, each in laneSum order.
#define HSUM2(accz, accy, accx, lo, hi) \
	VEXTRACTF64X4 $1, accz, Y12     \
	HSUM(accy, accx, X13, lo)       \
	HSUM(Y12, X12, X13, hi)

// func dot4x4AVX512(a0, a1, a2, a3, b0, b1, b2, b3 *float64, groups, tail int, out *[16]float64)
// The complete 4×4 register tile: four A rows against four B rows,
// sixteen outputs. A ZMM holds the four lanes of two outputs: the A rows
// are joined in pairs (a0|a1, a2|a3) by VINSERTF64X4 and each B row is
// broadcast to both halves by VBROADCASTF64X4, so one FMA advances the
// lanes of a_r·b_c and a_r+1·b_c. The tail (tail in 0..3) loads through
// masked YMM loads and is an opmask-merged FMA, which leaves the closed
// lanes untouched exactly as the Go lanes do. out[4r+c] receives the
// finished lane dot of A row r with B row c.
TEXT ·dot4x4AVX512(SB), NOSPLIT, $0-88
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DX
	MOVQ a2+16(FP), R12
	MOVQ a3+24(FP), R13
	MOVQ b0+32(FP), R8
	MOVQ b1+40(FP), R9
	MOVQ b2+48(FP), R10
	MOVQ b3+56(FP), R11
	MOVQ groups+64(FP), CX
	MOVQ tail+72(FP), BX
	MOVQ out+80(FP), DI
	XORQ AX, AX // byte offset into every row
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ CX, CX
	JZ    d44tail

d44loop:
	VMOVUPD         (SI)(AX*1), Y8
	VINSERTF64X4    $1, (DX)(AX*1), Z8, Z8
	VMOVUPD         (R12)(AX*1), Y9
	VINSERTF64X4    $1, (R13)(AX*1), Z9, Z9
	VBROADCASTF64X4 (R8)(AX*1), Z10
	VFMADD231PD     Z10, Z8, Z0
	VFMADD231PD     Z10, Z9, Z4
	VBROADCASTF64X4 (R9)(AX*1), Z11
	VFMADD231PD     Z11, Z8, Z1
	VFMADD231PD     Z11, Z9, Z5
	VBROADCASTF64X4 (R10)(AX*1), Z10
	VFMADD231PD     Z10, Z8, Z2
	VFMADD231PD     Z10, Z9, Z6
	VBROADCASTF64X4 (R11)(AX*1), Z11
	VFMADD231PD     Z11, Z8, Z3
	VFMADD231PD     Z11, Z9, Z7
	ADDQ            $32, AX
	DECQ            CX
	JNZ             d44loop

d44tail:
	TESTQ BX, BX
	JZ    d44done
	MOVQ  BX, CX
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVW BX, K1 // the first tail lanes of a YMM load
	MOVL  BX, CX
	SHLL  $4, CX
	ORL   CX, BX
	KMOVW BX, K2 // the same lanes in both halves of a ZMM
	VMOVUPD.Z    (SI)(AX*1), K1, Y8
	VMOVUPD.Z    (DX)(AX*1), K1, Y12
	VINSERTF64X4 $1, Y12, Z8, Z8
	VMOVUPD.Z    (R12)(AX*1), K1, Y9
	VMOVUPD.Z    (R13)(AX*1), K1, Y12
	VINSERTF64X4 $1, Y12, Z9, Z9
	VMOVUPD.Z    (R8)(AX*1), K1, Y10
	VINSERTF64X4 $1, Y10, Z10, Z10
	VFMADD231PD  Z10, Z8, K2, Z0
	VFMADD231PD  Z10, Z9, K2, Z4
	VMOVUPD.Z    (R9)(AX*1), K1, Y10
	VINSERTF64X4 $1, Y10, Z10, Z10
	VFMADD231PD  Z10, Z8, K2, Z1
	VFMADD231PD  Z10, Z9, K2, Z5
	VMOVUPD.Z    (R10)(AX*1), K1, Y10
	VINSERTF64X4 $1, Y10, Z10, Z10
	VFMADD231PD  Z10, Z8, K2, Z2
	VFMADD231PD  Z10, Z9, K2, Z6
	VMOVUPD.Z    (R11)(AX*1), K1, Y10
	VINSERTF64X4 $1, Y10, Z10, Z10
	VFMADD231PD  Z10, Z8, K2, Z3
	VFMADD231PD  Z10, Z9, K2, Z7

d44done:
	HSUM2(Z0, Y0, X0, 0, 32)
	HSUM2(Z1, Y1, X1, 8, 40)
	HSUM2(Z2, Y2, X2, 16, 48)
	HSUM2(Z3, Y3, X3, 24, 56)
	HSUM2(Z4, Y4, X4, 64, 96)
	HSUM2(Z5, Y5, X5, 72, 104)
	HSUM2(Z6, Y6, X6, 80, 112)
	HSUM2(Z7, Y7, X7, 88, 120)
	VZEROUPPER
	RET

// SUM8 reduces the four accumulators of one row pair (B rows 0..3, each
// holding the even row's lanes low and the odd row's high) to the pair's
// eight finished dots at out+off, in laneSum order: VSHUFF64X2 gathers
// the (l0,l1) and (l2,l3) halves of two accumulators, one add gives
// (l0+l2, l1+l3) per output, an unpack and an add finish (l0+l2)+(l1+l3),
// and VPERMPD (index Z12) restores row-major order.
#define SUM8(acc0, acc1, acc2, acc3, off) \
	VSHUFF64X2 $0x88, acc1, acc0, Z8  \
	VSHUFF64X2 $0xdd, acc1, acc0, Z9  \
	VADDPD     Z9, Z8, Z8             \
	VSHUFF64X2 $0x88, acc3, acc2, Z10 \
	VSHUFF64X2 $0xdd, acc3, acc2, Z11 \
	VADDPD     Z11, Z10, Z10          \
	VUNPCKLPD  Z10, Z8, Z9            \
	VUNPCKHPD  Z10, Z8, Z11           \
	VADDPD     Z11, Z9, Z9            \
	VPERMPD    Z9, Z12, Z9            \
	VMOVUPD    Z9, off(DI)

// sum8Perm is SUM8's VPERMPD index: the unpacked sums come out as
// (r0c0, r0c2, r1c0, r1c2, r0c1, r0c3, r1c1, r1c3).
DATA  sum8Perm<>+0(SB)/8, $0
DATA  sum8Perm<>+8(SB)/8, $4
DATA  sum8Perm<>+16(SB)/8, $1
DATA  sum8Perm<>+24(SB)/8, $5
DATA  sum8Perm<>+32(SB)/8, $2
DATA  sum8Perm<>+40(SB)/8, $6
DATA  sum8Perm<>+48(SB)/8, $3
DATA  sum8Perm<>+56(SB)/8, $7
GLOBL sum8Perm<>(SB), RODATA|NOPTR, $64

// func dot8x4AVX512(a, b0, b1, b2, b3 *float64, groups, tail int, out *[32]float64)
// The complete 8×4 register tile over one packed A group (see packA):
// each 4-column step holds four row pairs, 64 bytes each, the even row's
// four columns then the odd row's, so one aligned ZMM load yields the
// lanes of two rows and each B row is broadcast to both halves by
// VBROADCASTF64X4. Sixteen accumulators (pair p against B row c in
// Z16+4p+c) take 16 FMAs per step against 4 A loads and 4 broadcasts, no
// shuffle. The tail (tail in 0..3) reads the group's zero-padded last
// step whole and the B rows through masked YMM loads, and is an
// opmask-merged FMA, which leaves the closed lanes untouched exactly as
// the Go lanes do. out[4r+c] receives the finished lane dot of group row
// r with B row c.
TEXT ·dot8x4AVX512(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ groups+40(FP), CX
	MOVQ tail+48(FP), BX
	MOVQ out+56(FP), DI
	XORQ AX, AX // byte offset into every B row
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
	TESTQ CX, CX
	JZ    d84tail

d84loop:
	VMOVUPD         (SI), Z0
	VMOVUPD         64(SI), Z1
	VMOVUPD         128(SI), Z2
	VMOVUPD         192(SI), Z3
	VBROADCASTF64X4 (R8)(AX*1), Z4
	VBROADCASTF64X4 (R9)(AX*1), Z5
	VBROADCASTF64X4 (R10)(AX*1), Z6
	VBROADCASTF64X4 (R11)(AX*1), Z7
	VFMADD231PD     Z4, Z0, Z16
	VFMADD231PD     Z5, Z0, Z17
	VFMADD231PD     Z6, Z0, Z18
	VFMADD231PD     Z7, Z0, Z19
	VFMADD231PD     Z4, Z1, Z20
	VFMADD231PD     Z5, Z1, Z21
	VFMADD231PD     Z6, Z1, Z22
	VFMADD231PD     Z7, Z1, Z23
	VFMADD231PD     Z4, Z2, Z24
	VFMADD231PD     Z5, Z2, Z25
	VFMADD231PD     Z6, Z2, Z26
	VFMADD231PD     Z7, Z2, Z27
	VFMADD231PD     Z4, Z3, Z28
	VFMADD231PD     Z5, Z3, Z29
	VFMADD231PD     Z6, Z3, Z30
	VFMADD231PD     Z7, Z3, Z31
	ADDQ            $256, SI
	ADDQ            $32, AX
	DECQ            CX
	JNZ             d84loop

d84tail:
	TESTQ BX, BX
	JZ    d84done
	MOVQ  BX, CX
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVW BX, K1 // the first tail lanes of a YMM load
	MOVL  BX, CX
	SHLL  $4, CX
	ORL   CX, BX
	KMOVW BX, K2 // the same lanes in both halves of a ZMM
	VMOVUPD      (SI), Z0
	VMOVUPD      64(SI), Z1
	VMOVUPD      128(SI), Z2
	VMOVUPD      192(SI), Z3
	VMOVUPD.Z    (R8)(AX*1), K1, Y4
	VINSERTF64X4 $1, Y4, Z4, Z4
	VMOVUPD.Z    (R9)(AX*1), K1, Y5
	VINSERTF64X4 $1, Y5, Z5, Z5
	VMOVUPD.Z    (R10)(AX*1), K1, Y6
	VINSERTF64X4 $1, Y6, Z6, Z6
	VMOVUPD.Z    (R11)(AX*1), K1, Y7
	VINSERTF64X4 $1, Y7, Z7, Z7
	VFMADD231PD  Z4, Z0, K2, Z16
	VFMADD231PD  Z5, Z0, K2, Z17
	VFMADD231PD  Z6, Z0, K2, Z18
	VFMADD231PD  Z7, Z0, K2, Z19
	VFMADD231PD  Z4, Z1, K2, Z20
	VFMADD231PD  Z5, Z1, K2, Z21
	VFMADD231PD  Z6, Z1, K2, Z22
	VFMADD231PD  Z7, Z1, K2, Z23
	VFMADD231PD  Z4, Z2, K2, Z24
	VFMADD231PD  Z5, Z2, K2, Z25
	VFMADD231PD  Z6, Z2, K2, Z26
	VFMADD231PD  Z7, Z2, K2, Z27
	VFMADD231PD  Z4, Z3, K2, Z28
	VFMADD231PD  Z5, Z3, K2, Z29
	VFMADD231PD  Z6, Z3, K2, Z30
	VFMADD231PD  Z7, Z3, K2, Z31

d84done:
	VMOVDQU64 sum8Perm<>(SB), Z12
	SUM8(Z16, Z17, Z18, Z19, 0)
	SUM8(Z20, Z21, Z22, Z23, 64)
	SUM8(Z24, Z25, Z26, Z27, 128)
	SUM8(Z28, Z29, Z30, Z31, 192)
	VZEROUPPER
	RET

// func cosSinAVX512(z, cosC, sinC *float64, groups int, consts *[19]float64) int
// The RBF activation (cos z·cosC − sin z·sinC)·sin z on eight lanes at a
// time, in place. sin z and cos z follow math.Sincos step for step: the
// same Cody–Waite reduction by π/4 in three parts, the same Cephes
// polynomials in the same Horner order, every product and sum rounded on
// its own (no FMA), as the Go compiler emits them on amd64. A ±0 lane
// needs no special case to give (sin, cos) = (z, 1), as math.Sincos
// does: |z| = +0 yields the polynomials (+0, 1) in octant 0, and sin
// takes the sign bit of z (where Go tests z < 0, which differs only at
// -0). A group with any lane where !(|z| < 2^29) (NaN and ±Inf included)
// needs the Payne–Hanek reduction the kernel does not have, so the kernel
// stops before it and returns the number of groups it completed. consts
// is cosSinConsts.
TEXT ·cosSinAVX512(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), SI
	MOVQ cosC+8(FP), R8
	MOVQ sinC+16(FP), R9
	MOVQ groups+24(FP), CX
	MOVQ consts+32(FP), BX
	XORQ DX, DX // groups completed
	VBROADCASTSD 0(BX), Z16  // 4/π
	VBROADCASTSD 8(BX), Z17  // PI4A
	VBROADCASTSD 16(BX), Z18 // PI4B
	VBROADCASTSD 24(BX), Z19 // PI4C
	VBROADCASTSD 32(BX), Z20 // 2^29, the reduction threshold
	VBROADCASTSD 40(BX), Z21 // 1.0
	VBROADCASTSD 48(BX), Z22 // 0.5
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z23     // |·| mask
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z24     // integer 1
	MOVQ         $2, AX
	VPBROADCASTQ AX, Z25     // integer 2
	MOVQ         $4, AX
	VPBROADCASTQ AX, Z26     // integer 4
	MOVQ         $1, AX
	SHLQ         $63, AX
	VPBROADCASTQ AX, Z27     // sign mask
	TESTQ        CX, CX
	JZ           csdone

csloop:
	VMOVUPD     (SI), Z0              // z
	VPANDQ      Z23, Z0, Z1           // x = |z|
	VCMPPD      $0x11, Z20, Z1, K1    // LT_OQ: x < 2^29, false for NaN
	KMOVW       K1, AX
	CMPL        AX, $0xff
	JNE         csdone
	VPXORQ      Z1, Z0, Z2            // sign bit of z
	VMULPD      Z16, Z1, Z3           // x·(4/π)
	VCVTTPD2UQQ Z3, Z3                // j = uint64(x·(4/π))
	VPANDQ      Z24, Z3, Z4
	VPADDQ      Z4, Z3, Z3            // odd j: j++ (y++ is exact)
	VCVTUQQ2PD  Z3, Z4                // y = float64(j)
	VMULPD      Z17, Z4, Z5
	VSUBPD      Z5, Z1, Z5            // x − y·PI4A
	VMULPD      Z18, Z4, Z6
	VSUBPD      Z6, Z5, Z5            // − y·PI4B
	VMULPD      Z19, Z4, Z6
	VSUBPD      Z6, Z5, Z5            // − y·PI4C: the reduced argument r
	VMULPD      Z5, Z5, Z6            // zz = r·r

	// cos: 1 − 0.5·zz + zz·zz·(((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5)
	VMULPD.BCST 56(BX), Z6, Z7
	VADDPD.BCST 64(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 72(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 80(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 88(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 96(BX), Z7, Z7
	VMULPD      Z6, Z6, Z8
	VMULPD      Z7, Z8, Z8            // zz·zz·P
	VMULPD      Z22, Z6, Z9
	VSUBPD      Z9, Z21, Z9           // 1 − 0.5·zz
	VADDPD      Z8, Z9, Z9            // cos polynomial

	// sin: r + r·zz·(((((s0·zz + s1)·zz + s2)·zz + s3)·zz + s4)·zz + s5)
	VMULPD.BCST 104(BX), Z6, Z7
	VADDPD.BCST 112(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 120(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 128(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 136(BX), Z7, Z7
	VMULPD      Z6, Z7, Z7
	VADDPD.BCST 144(BX), Z7, Z7
	VMULPD      Z6, Z5, Z8
	VMULPD      Z7, Z8, Z8            // r·zz·S
	VADDPD      Z8, Z5, Z10           // sin polynomial

	// Octant j&7 ∈ {0, 2, 4, 6}: bit 1 swaps the polynomials and flips
	// cos; bit 2 flips both; the sign bit of z flips sin.
	VPTESTMQ  Z25, Z3, K3
	VPTESTMQ  Z26, Z3, K4
	VBLENDMPD Z9, Z10, K3, Z11        // sin
	VBLENDMPD Z10, Z9, K3, Z12        // cos
	KXORW     K3, K4, K5
	VPXORQ    Z27, Z12, K5, Z12
	VPXORQ    Z27, Z11, K4, Z11
	VPXORQ    Z2, Z11, Z11

	VMULPD  (R8), Z12, Z13            // cos·cosC
	VMULPD  (R9), Z11, Z14            // sin·sinC
	VSUBPD  Z14, Z13, Z13
	VMULPD  Z11, Z13, Z13             // ·sin
	VMOVUPD Z13, (SI)
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, R9
	INCQ    DX
	DECQ    CX
	JNZ     csloop

csdone:
	MOVQ DX, ret+40(FP)
	VZEROUPPER
	RET
