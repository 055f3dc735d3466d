package mat

// This file declares the float64 assembly kernels (simd_amd64.s) behind
// the AVX2 and AVX-512 tiers (see tier.go). The GEMM tiles compute exactly
// the 4-lane FMA accumulation the pure-Go lane kernels in kernels.go
// define, and the epilogue computes exactly what math.Sincos and the RBF
// activation compute in Go, so a tier changes speed, never bits.

// laneMasks holds the VMASKMOVPD masks for tails of 1, 2 and 3 elements
// (rows of 4 lanes; all-ones opens a lane).
var laneMasks = [12]int64{
	-1, 0, 0, 0,
	-1, -1, 0, 0,
	-1, -1, -1, 0,
}

// dotBatch4AVX is the complete 1×4 micro-kernel: groups full 4-element
// FMA steps of a against four B rows, a masked partial step for tail
// (0..3) further elements, and the laneSum reduction into out.
//
//go:noescape
func dotBatch4AVX(a, b0, b1, b2, b3 *float64, groups, tail int, masks *[12]int64, out *[4]float64)

// dot2x4AVX is the complete 2×4 register tile (two A rows, four B rows,
// eight finished dots in out).
//
//go:noescape
func dot2x4AVX(a0, a1, b0, b1, b2, b3 *float64, groups, tail int, masks *[12]int64, out *[8]float64)

// dot4x4AVX512 is the complete 4×4 register tile (four A rows, four B
// rows, sixteen finished dots in out, row-major): each ZMM accumulator
// holds the four lanes of two outputs, and the tail is an opmask-merged
// FMA step.
//
//go:noescape
func dot4x4AVX512(a0, a1, a2, a3, b0, b1, b2, b3 *float64, groups, tail int, out *[16]float64)

// dot8x4AVX512 is the complete 8×4 register tile over one packed A group
// (eight rows in packA's layout; groups full 4-column steps, then a tail
// of 0..3 columns in a zero-padded step) against four B rows: 32
// finished dots in out, out[4r+c] for group row r and B row c.
//
//go:noescape
func dot8x4AVX512(a, b0, b1, b2, b3 *float64, groups, tail int, out *[32]float64)

// cosSinAVX512 runs the RBF activation over up to groups 8-lane groups
// of z in place and returns how many it completed: it stops before the
// first group holding a lane that is not below 2^29 in magnitude.
//
//go:noescape
func cosSinAVX512(z, cosC, sinC *float64, groups int, consts *[19]float64) int
