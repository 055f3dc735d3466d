package mat

// This file declares the float32 FMA assembly kernels (simd32_amd64.s)
// behind the packed encode path. The assembly computes exactly the
// 16-lane float32 FMA accumulation the pure-Go kernels in f32.go define
// (fma32 is an exact emulation of the hardware single-precision FMA), so
// enabling a tier changes speed, never bits.

// f32TailMasks holds the VMASKMOVPS masks for the AVX2 tier's tails of
// 1..15 elements: row t-1 opens the first t of 16 int32 lanes.
var f32TailMasks = func() (m [240]int32) {
	for t := 1; t <= 15; t++ {
		for i := 0; i < t; i++ {
			m[(t-1)*16+i] = -1
		}
	}
	return
}()

// dotBatch4F32AVX512 is the complete AVX-512 1×4 micro-kernel: groups
// full 16-element FMA steps of a against four B rows, an opmask-gated
// partial step for tail (0..15) further elements, and the laneSum32
// reduction into out.
//
//go:noescape
func dotBatch4F32AVX512(a, b0, b1, b2, b3 *float32, groups, tail int, out *[4]float32)

// dot2x8F32AVX512 is the AVX-512 2×8 register tile, walked over pairs
// row pairs of A (from a, lda floats apart) against the eight B rows b
// points to: it puts each pair's sixteen finished dots into columns
// [0, cols) of c's rows 2p and 2p+1 (ldc floats apart), stored when first
// and added otherwise. b must not escape: it is the caller's stack array.
//
//go:noescape
func dot2x8F32AVX512(a *float32, lda, pairs int, b *[8]*float32, groups, tail int, c *float32, ldc, cols int, first bool)

// dotBatch4F32AVX2 is the AVX2 1×4 micro-kernel under the same contract,
// with each 16-lane accumulator split across two YMM registers and the
// tail loaded through VMASKMOVPS masks.
//
//go:noescape
func dotBatch4F32AVX2(a, b0, b1, b2, b3 *float32, groups, tail int, masks *[240]int32, out *[4]float32)
