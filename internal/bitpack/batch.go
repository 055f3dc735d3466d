// Package bitpack implements deployment-grade bipolar hypervector
// inference: hypervectors packed one bit per dimension into uint64 words,
// with Hamming similarity computed by XOR + popcount. This is the
// arithmetic an edge accelerator or microcontroller actually executes for
// a 1-bit HDC model (the most robust configuration in the paper's Fig. 8),
// and it is typically an order of magnitude faster than float dot
// products at equal dimensionality. Everything scores Matrix rows; the
// one-vector Vector and the float64 PackActivationSigns that the kernels
// are checked against are test code.
package bitpack

// Batch-serving layout and kernels-facing API. A Matrix stores packed
// hypervector rows at a stride rounded up to eight 64-bit words with the
// padding kept zero, so the score kernels never execute a masked tail:
// XOR of two zero pad words contributes nothing to a popcount. That one
// layout decision is what lets the assembly loops run full 512-bit
// strides unconditionally.

import (
	"fmt"
	"math"
)

// wordAlign is the row-stride granularity in 64-bit words (eight words =
// one 512-bit kernel step).
const wordAlign = 8

// Matrix is a dense row-major collection of packed bipolar hypervectors:
// bit d of row i set means dimension d of vector i is +1. Rows are
// Stride words apart; words at or beyond ceil(Dim/64), and bits at or
// beyond Dim in the last used word, are always zero.
type Matrix struct {
	Rows   int
	Dim    int
	Stride int
	Words  []uint64
}

// matrixStride returns the padded row stride in words for a dimension.
func matrixStride(dim int) int {
	words := (dim + 63) / 64
	return (words + wordAlign - 1) &^ (wordAlign - 1)
}

// NewMatrix returns an all-(−1) packed matrix of rows × dim.
func NewMatrix(rows, dim int) *Matrix {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("bitpack: non-positive matrix shape %d×%d", rows, dim))
	}
	stride := matrixStride(dim)
	return &Matrix{Rows: rows, Dim: dim, Stride: stride, Words: make([]uint64, rows*stride)}
}

// Row returns the full padded word slice backing row i.
func (a *Matrix) Row(i int) []uint64 {
	return a.Words[i*a.Stride : (i+1)*a.Stride]
}

// Bit reports whether dimension d of row i is +1.
func (a *Matrix) Bit(i, d int) bool {
	return a.Words[i*a.Stride+d/64]&(1<<uint(d%64)) != 0
}

// PackRow packs the signs of a float hypervector into row i (zero counts
// +1, the repo-wide convention), clearing pad words and trailing bits.
func (a *Matrix) PackRow(i int, x []float64) {
	if len(x) != a.Dim {
		panic(fmt.Sprintf("bitpack: PackRow length %d for dimension %d", len(x), a.Dim))
	}
	row := a.Row(i)
	for j := range row {
		row[j] = 0
	}
	for d, v := range x {
		if v >= 0 {
			row[d/64] |= 1 << uint(d%64)
		}
	}
}

// FracTurns reduces an angle in radians to its fractional number of full
// turns in [0,1), using exactly the constant and operations the sign-
// pack kernels use. Callers precompute FracTurns of each RBF phase and
// hand the result to PackActivationSigns32.
func FracTurns(c float64) float64 {
	f := c * packConsts[0]
	f -= math.Floor(f)
	return f
}

// PackActivationSigns32 packs the signs of the RBF activation
// cos(z_d + c_d)·sin(z_d) for one float32 projection row z — the packed
// serving tier's native width — given the per-dimension fractional phases
// fracPhase[d] = FracTurns(c_d). dst must hold at least ceil(len(z)/64)
// words (a Matrix row); all words past the used ones are zeroed, so the
// Matrix padding invariant holds even when rows are reused across
// batches. Each float32 widens to float64 exactly (in registers on the
// AVX-512 tier, through a small stack buffer on the others), so the sign
// rule, and therefore the packed bits, is the same deterministic function
// on every host, and the call allocates nothing. The partial tail word is
// packed in pure Go on every tier.
func PackActivationSigns32(z []float32, fracPhase []float64, dst []uint64) {
	dim := len(z)
	if len(fracPhase) != dim {
		panic(fmt.Sprintf("bitpack: fracPhase length %d for dimension %d", len(fracPhase), dim))
	}
	used := (dim + 63) / 64
	if len(dst) < used {
		panic(fmt.Sprintf("bitpack: PackActivationSigns32 dst %d words, need %d", len(dst), used))
	}
	groups := dim / 64
	packSignWords32(z[:groups*64], fracPhase[:groups*64], dst[:groups])
	if tail := dim - groups*64; tail > 0 {
		var buf [64]float64
		for j, v := range z[groups*64:] {
			buf[j] = float64(v)
		}
		dst[groups] = packSignTailBits(buf[:tail], fracPhase[groups*64:])
	}
	for j := used; j < len(dst); j++ {
		dst[j] = 0
	}
}

// ScoreBatchInto writes the agreement (Dim − 2·Hamming, i.e. the bipolar
// dot product) of every query row against every class row into dst,
// row-major queries.Rows × classes.Rows. Scoring is exact integer
// arithmetic, identical on every ISA tier.
func ScoreBatchInto(classes, queries *Matrix, dst []int32) {
	if classes.Dim != queries.Dim || classes.Stride != queries.Stride {
		panic(fmt.Sprintf("bitpack: score layout mismatch %d/%d vs %d/%d",
			classes.Dim, classes.Stride, queries.Dim, queries.Stride))
	}
	k := classes.Rows
	if len(dst) < queries.Rows*k {
		panic(fmt.Sprintf("bitpack: ScoreBatchInto dst %d, need %d", len(dst), queries.Rows*k))
	}
	dim := int64(queries.Dim)
	for i := 0; i < queries.Rows; i++ {
		q := queries.Row(i)
		row := dst[i*k : (i+1)*k]
		c := 0
		for ; c+4 <= k; c += 4 {
			var h [4]int64
			xorPopcnt4(q, classes.Row(c), classes.Row(c+1), classes.Row(c+2), classes.Row(c+3), &h)
			row[c] = int32(dim - 2*h[0])
			row[c+1] = int32(dim - 2*h[1])
			row[c+2] = int32(dim - 2*h[2])
			row[c+3] = int32(dim - 2*h[3])
		}
		for ; c < k; c++ {
			row[c] = int32(dim - 2*xorPopcnt(q, classes.Row(c)))
		}
	}
}

// PredictBatchInto scores every query against every class into the
// caller-provided scratch (≥ queries.Rows×classes.Rows) and writes the
// argmax class per query into out, first class winning ties — the same
// tie rule as the float path's mat.ArgMax.
func PredictBatchInto(classes, queries *Matrix, scores []int32, out []int) {
	if len(out) < queries.Rows {
		panic(fmt.Sprintf("bitpack: PredictBatchInto out %d, need %d", len(out), queries.Rows))
	}
	ScoreBatchInto(classes, queries, scores)
	k := classes.Rows
	for i := 0; i < queries.Rows; i++ {
		row := scores[i*k : (i+1)*k]
		best, bestScore := 0, row[0]
		for c := 1; c < k; c++ {
			if row[c] > bestScore {
				best, bestScore = c, row[c]
			}
		}
		out[i] = best
	}
}
