// Package mat implements the dense linear-algebra substrate used by every
// learner in this repository: row-major float64 matrices, cache-blocked and
// register-tiled matrix kernels, a persistent worker pool, and the handful
// of vector kernels (dot, axpy, norms, column reductions, top-k selection)
// that dominate HDC encoding and similarity search.
//
// The kernel layer is built around destination-passing "Into" variants so
// hot loops can reuse buffers and allocate nothing in steady state:
//
//   - MulTInto(dst, A, B) computes A·Bᵀ — the shape of both HDC hot paths
//     (batch encoding and batched similarity) — cache-blocked over the
//     shared dimension (kernelKC-column panels sized to L1) and
//     register-tiled 4×4, 2×4 and 1×4 (dot4x4, dot2x4, DotBatch), each
//     computing four output columns per pass over its rows.
//   - ActivateRBF is the RBF encoder's cos·sin epilogue, eight lanes at a
//     time on AVX-512, bit-identical to math.Sincos.
//   - ParallelFor shards loops over a persistent goroutine worker pool
//     (see pool.go); GetScratch provides pooled temporaries.
//
// The package deliberately stays small and allocation-conscious rather than
// general: matrices are plain row-major slices, rows are exposed as
// zero-copy views, and hot-path dimension mismatches panic (they are
// programmer errors, not runtime conditions).
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix. The zero value is an empty matrix; use New
// or FromRows to construct a usable one.
type Dense struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i,j) is Data[i*Cols+j].
	Data []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// View wraps an existing slice as a rows×cols matrix without copying,
// panicking unless len(data) is exactly rows*cols. Use it for scratch-pool
// views so a mismatched size fails at the construction site instead of as
// an out-of-range panic deep inside a kernel.
func View(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: View %dx%d over %d elements", rows, cols, len(data)))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given rows, which must all have
// equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged input, row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a zero-copy view of row i.
func (m *Dense) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Dot returns the inner product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	// 4-way unrolled accumulation; measurably faster than the naive loop on
	// the long (D >= 512) vectors HDC uses, without resorting to assembly.
	n := len(a)
	i := 0
	var s0, s1, s2, s3 float64
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s + s0 + s1 + s2 + s3
}

// Axpy computes dst += alpha * x element-wise.
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// RowNorms writes the Euclidean norms of rows [i0, i0+len(dst)) of m
// into dst, four rows per pass over the columns. Each row's sum of
// squares is Norm2's chain, in index order, so every norm has Norm2's
// bits; the four chains are independent, so they run side by side rather
// than each waiting out the add latency alone.
func RowNorms(dst []float64, m *Dense, i0 int) {
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		x0 := m.Row(i0 + r)
		x1, x2, x3 := m.Row(i0 + r + 1)[:len(x0)], m.Row(i0 + r + 2)[:len(x0)], m.Row(i0 + r + 3)[:len(x0)]
		var s0, s1, s2, s3 float64
		for j, v := range x0 {
			s0 += v * v
			s1 += x1[j] * x1[j]
			s2 += x2[j] * x2[j]
			s3 += x3[j] * x3[j]
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
	}
	for ; r < len(dst); r++ {
		dst[r] = Norm2(m.Row(i0 + r))
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	Scale(x, 1/n)
	return n
}

// CosineSim returns the cosine similarity of a and b, or 0 if either has
// zero norm.
func CosineSim(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// AbsDiff writes |a[i]-b[i]| into dst.
func AbsDiff(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("mat: AbsDiff length mismatch")
	}
	for i := range a {
		dst[i] = math.Abs(a[i] - b[i])
	}
}

// ReduceChunk is the fixed shard height of ChunkedColReduce. A
// machine-independent chunk (rather than n/GOMAXPROCS) fixes the
// partial-sum boundaries and merge order, so chunked reductions are
// bitwise identical on every machine — the same determinism contract the
// matrix kernels keep.
const ReduceChunk = 128

// ChunkSpan returns the index range [lo, hi) that chunk c of a
// ChunkedColReduce over n items covers.
func ChunkSpan(c, n int) (lo, hi int) {
	lo = c * ReduceChunk
	hi = lo + ReduceChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ChunkedColReduce runs a deterministic parallel column reduction over n
// items: the range [0, n) is split into ReduceChunk-sized chunks,
// accumulate(c, p) adds chunk c's contribution (the items of ChunkSpan(c,
// n)) into the width-wide partial p, and partials merge in chunk order.
// The chunked structure is used even when running serially, so every
// low-order bit of the result is identical whatever the core count.
// accumulate must be safe to call concurrently for different chunks.
func ChunkedColReduce(n, width int, out []float64, accumulate func(chunk int, p []float64)) []float64 {
	if len(out) != width {
		panic("mat: ChunkedColReduce output length mismatch")
	}
	for j := range out {
		out[j] = 0
	}
	if n <= 0 || width == 0 {
		return out
	}
	if n <= ReduceChunk {
		accumulate(0, out)
		return out
	}
	chunks := (n + ReduceChunk - 1) / ReduceChunk
	partial := GetScratchZeroed(chunks * width)
	if Serial() {
		for c := 0; c < chunks; c++ {
			accumulate(c, partial.Buf[c*width:(c+1)*width])
		}
	} else {
		ParallelFor(chunks, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				accumulate(c, partial.Buf[c*width:(c+1)*width])
			}
		})
	}
	for c := 0; c < chunks; c++ {
		for j, v := range partial.Buf[c*width : (c+1)*width] {
			out[j] += v
		}
	}
	partial.Release()
	return out
}

// RowNormalizeL2 scales each row of m to unit Euclidean norm in place.
// Zero rows are left untouched.
func (m *Dense) RowNormalizeL2() {
	for i := 0; i < m.Rows; i++ {
		Normalize(m.Row(i))
	}
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x (0 for len < 2).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}
