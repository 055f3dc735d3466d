package mat

import (
	"sync/atomic"

	"repro/internal/isa"
)

// Kernel dispatch tiers, lowest to highest. One tier drives every kernel
// family in this package: the float64 GEMM tiles, the RBF epilogue and the
// float32 tiles. Each tier computes exactly what the pure-Go kernels
// define, so the tier changes speed, never bits.
const (
	tierGeneric int32 = iota // pure-Go lane kernels
	tierAVX2                 // f64 1×4 and 2×4 YMM tiles; f32 tiles on YMM pairs
	tierAVX512               // adds the f64 4×4 and packed 8×4 ZMM tiles and the ZMM epilogue; f32 tiles on ZMM
)

// tierOf returns the best tier a host with features f can run. The AVX2
// tier needs AVX2 and FMA. The AVX-512 tier also runs the AVX2 kernels
// (for row remainders and DotBatch), and needs AVX512F for ZMM
// arithmetic, AVX512DQ for the epilogue's VCVTTPD2UQQ and VCVTUQQ2PD,
// and AVX512VL for the masked YMM loads of the 4×4 and 8×4 tiles' tails
// and the f32 2×8 tile's masked YMM stores. Every AVX-512 Xeon since
// Skylake-SP has all three.
func tierOf(f isa.Features) int32 {
	switch {
	case !f.AVX2 || !f.FMA:
		return tierGeneric
	case f.AVX512F && f.AVX512DQ && f.AVX512VL:
		return tierAVX512
	}
	return tierAVX2
}

// bestTier is the highest tier the host CPU and OS support.
var bestTier = tierOf(isa.Host)

// tier is the active dispatch tier. Atomic so tests can force lower
// tiers while -race parity checks run concurrently.
var tier atomic.Int32

func init() { tier.Store(bestTier) }

// setTier forces the dispatch tier (tests only), clamped to bestTier.
// It returns the previous tier so callers can restore it.
func setTier(level int32) int32 {
	if level > bestTier {
		level = bestTier
	}
	return tier.Swap(level)
}
