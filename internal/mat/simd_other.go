//go:build !amd64

package mat

// Non-amd64 builds run the pure-Go kernels, which produce bit-identical
// results to the assembly (see simd_amd64.go and simd32_amd64.go). The
// entry points below exist only to satisfy the dispatch code and are
// unreachable because isa.Host reports no features there, which pins the
// tier to tierGeneric.

var (
	laneMasks    [12]int64
	f32TailMasks [240]int32
)

func dotBatch4AVX(a, b0, b1, b2, b3 *float64, groups, tail int, masks *[12]int64, out *[4]float64) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func dot2x4AVX(a0, a1, b0, b1, b2, b3 *float64, groups, tail int, masks *[12]int64, out *[8]float64) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func dot4x4AVX512(a0, a1, a2, a3, b0, b1, b2, b3 *float64, groups, tail int, out *[16]float64) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func dot8x4AVX512(a, b0, b1, b2, b3 *float64, groups, tail int, out *[32]float64) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func cosSinAVX512(z, cosC, sinC *float64, groups int, consts *[19]float64) int {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func dotBatch4F32AVX512(a, b0, b1, b2, b3 *float32, groups, tail int, out *[4]float32) {
	panic("mat: f32 SIMD kernel on non-amd64 build")
}

func dot2x8F32AVX512(a *float32, lda, pairs int, b *[8]*float32, groups, tail int, c *float32, ldc, cols int, first bool) {
	panic("mat: f32 SIMD kernel on non-amd64 build")
}

func dotBatch4F32AVX2(a, b0, b1, b2, b3 *float32, groups, tail int, masks *[240]int32, out *[4]float32) {
	panic("mat: f32 SIMD kernel on non-amd64 build")
}
