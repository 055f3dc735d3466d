package mat

import (
	"fmt"
	"math"
)

// This file holds the float32 projection kernels behind the packed 1-bit
// encode path. The quantized serving tier only consumes the SIGN of each
// RBF activation, so its projection GEMM runs in float32 — half the
// memory traffic and twice the SIMD lanes of the float64 kernels — while
// the f32 champion keeps the float64 path untouched.
//
// The contract mirrors kernels.go exactly: the pure-Go functions in this
// file define the arithmetic, and the assembly tiers in simd32_amd64.s
// reproduce it bit for bit, so the packed bits of an encode never depend
// on the host ISA. Each output element is accumulated as sixteen strided
// float32 fused-multiply-add lanes — the dataflow of one 16-wide AVX-512
// VFMADD231PS loop (or two 8-wide AVX2 ones) — and reduced by the fixed
// extract/add tree of laneSum32. The Go lanes use fma32, an exact
// software emulation of the hardware single-precision FMA (see its
// comment for the round-to-odd argument), so "same bits" holds even on
// hosts with no FMA at all.
//
// Within a panel the product runs one 2×8 register tile per eight-row B
// tile (dot2x8F32): on AVX-512 one kernel call walks every row pair of
// the range, 16 ZMM accumulators per pair, and folds the pair's sixteen
// outputs into one ZMM in a single merged reduction that keeps laneSum32's
// order; the other tiers compose the tile from 1×4 tiles.

// kernelNR32 is the f32 register tile's B rows (outputs per A row and
// pass): a 16-lane f32 output fills a whole ZMM accumulator, so the 2×8
// tile's 16 outputs fill the 16 upper ZMM registers. lanes32 is the FMA
// lane count per output element.
const (
	kernelNR32 = 8
	lanes32    = 16
)

// Dense32 is a row-major float32 matrix — the minimal shape the packed
// encode path needs (scratch views, no general linear algebra). Element
// (i,j) is Data[i*Stride+j]. NewDense32 rounds Stride up to lanes32 so
// every row starts 64-byte aligned (given an aligned base) and the SIMD
// kernels can run whole 16-lane groups over the zero padding instead of
// a masked tail — the same padded-row trick bitpack.Matrix plays with
// its words. The padding columns MUST stay zero; Row excludes them and
// all writers in this package preserve them.
type Dense32 struct {
	Rows, Cols, Stride int
	Data               []float32
}

// Stride32 returns the padded row stride NewDense32 would pick for a
// matrix of cols columns: cols rounded up to a multiple of lanes32.
func Stride32(cols int) int {
	return (cols + lanes32 - 1) &^ (lanes32 - 1)
}

// NewDense32 returns a zeroed rows×cols float32 matrix with padded rows.
func NewDense32(rows, cols int) *Dense32 {
	stride := Stride32(cols)
	return &Dense32{Rows: rows, Cols: cols, Stride: stride, Data: make([]float32, rows*stride)}
}

// View32 wraps an existing slice as a rows×cols matrix without copying.
// The backing slice must hold rows padded to Stride32(cols) and the
// padding columns must be zero (a freshly allocated arena qualifies).
func View32(rows, cols int, data []float32) *Dense32 {
	stride := Stride32(cols)
	if len(data) < rows*stride {
		panic(fmt.Sprintf("mat: View32 backing slice %d for %dx%d (stride %d)", len(data), rows, cols, stride))
	}
	return &Dense32{Rows: rows, Cols: cols, Stride: stride, Data: data[:rows*stride]}
}

// Row returns row i as a zero-copy slice view, excluding the padding.
func (m *Dense32) Row(i int) []float32 {
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// paddedRow returns row i including the zero padding columns — the view
// the kernels iterate so no masked tail runs.
func (m *Dense32) paddedRow(i int) []float32 {
	return m.Data[i*m.Stride : (i+1)*m.Stride]
}

// SetFrom fills the matrix with the float64 values of src, rounding each
// to float32 — how the shared projection base is lowered. Padding
// columns are left untouched (zero).
func (m *Dense32) SetFrom(src *Dense) {
	if src.Rows != m.Rows || src.Cols != m.Cols {
		panic(fmt.Sprintf("mat: SetFrom %dx%d from %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		m.SetRow(i, src.Row(i))
	}
}

// SetRow writes the float64 values of src into row i, rounding each to
// float32 — how the packed query path lowers its inputs. src holds at
// most Cols values; the padding columns are left untouched.
func (m *Dense32) SetRow(i int, src []float64) {
	dst := m.Row(i)
	for j, v := range src {
		dst[j] = float32(v)
	}
}

// fma32 is an exact software float32 fused multiply-add: it returns
// a·b+c computed exactly and rounded ONCE to float32 — bit-identical to
// the hardware VFMADD231PS lane the assembly tiers run.
//
// The product of two 24-bit significands is exact in float64, so only
// the addition can round. A float64 round-to-nearest of p+c followed by
// a float32 conversion would double-round; instead the float64 sum is
// corrected to round-to-odd (if the TwoSum residual is nonzero and the
// sum's mantissa is even, nudge one ulp toward the residual), after
// which the final float32 rounding is exact — the standard Boldo–
// Melquiond argument, valid because float64 carries ≥ 2·24+2 bits.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b)
	s := p + float64(c)
	t := s - p
	r := (p - (s - t)) + (float64(c) - t)
	if r != 0 && !math.IsNaN(r) && math.Float64bits(s)&1 == 0 {
		if r > 0 {
			s = math.Nextafter(s, math.Inf(1))
		} else {
			s = math.Nextafter(s, math.Inf(-1))
		}
	}
	return float32(s)
}

// laneFMA32 folds panel elements [i, n) of a·b into the sixteen
// accumulator lanes at lanes[o:o+16], continuing the stride-16 lane
// pattern from panel index i.
func laneFMA32(a, b []float32, i, n, o int, lanes *[64]float32) {
	for ; i < n; i++ {
		lanes[o+i%lanes32] = fma32(a[i], b[i], lanes[o+i%lanes32])
	}
}

// laneSum32 is the horizontal reduction of one 16-lane group — the
// extract/add tree of the AVX-512 epilogue (512→256→128-bit folds, then
// the same final 4-lane order as the float64 kernels). The AVX2 tier's
// two 8-lane accumulators add into exactly the first fold.
func laneSum32(l *[64]float32, o int) float32 {
	var m [8]float32
	for j := 0; j < 8; j++ {
		m[j] = l[o+j] + l[o+8+j]
	}
	var x [4]float32
	for j := 0; j < 4; j++ {
		x[j] = m[j] + m[j+4]
	}
	return (x[0] + x[2]) + (x[1] + x[3])
}

// dotBatch4F32Go is the pure-Go 1×4 micro-kernel: four lane dots of a
// against b0..b3 in one pass over a.
func dotBatch4F32Go(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	n := len(a)
	var lanes [64]float32
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	i := 0
	for ; i+lanes32 <= n; i += lanes32 {
		for k := 0; k < lanes32; k++ {
			av := a[i+k]
			lanes[k] = fma32(av, b0[i+k], lanes[k])
			lanes[16+k] = fma32(av, b1[i+k], lanes[16+k])
			lanes[32+k] = fma32(av, b2[i+k], lanes[32+k])
			lanes[48+k] = fma32(av, b3[i+k], lanes[48+k])
		}
	}
	laneFMA32(a, b0, i, n, 0, &lanes)
	laneFMA32(a, b1, i, n, 16, &lanes)
	laneFMA32(a, b2, i, n, 32, &lanes)
	laneFMA32(a, b3, i, n, 48, &lanes)
	out[0] = laneSum32(&lanes, 0)
	out[1] = laneSum32(&lanes, 16)
	out[2] = laneSum32(&lanes, 32)
	out[3] = laneSum32(&lanes, 48)
}

// dotBatch4F32 dispatches the 1×4 micro-kernel.
func dotBatch4F32(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	n := len(a)
	switch tier.Load() {
	case tierAVX512:
		dotBatch4F32AVX512(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n/lanes32, n%lanes32, out)
		return
	case tierAVX2:
		dotBatch4F32AVX2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n/lanes32, n%lanes32, &f32TailMasks, out)
		return
	}
	dotBatch4F32Go(a, b0, b1, b2, b3, out)
}

// dot2x8F32 runs the 2×8 register tile over rows [i0, i1) of A's panel
// [k0, k1) against the eight B row panels in b: column c of each row's
// tile goes to dst at (i, j+c) for c < cols, stored on the first panel
// and added on later ones. The AVX-512 kernel walks the row pairs itself;
// the AVX2 and generic tiers compose each pair from four 1×4 tiles, and
// an odd last row runs two 1×4 tiles on every tier. Each output is an
// independent lane dot, so every composition has the same bits.
func dot2x8F32(dst, a *Dense32, i0, i1, k0, k1 int, b *[kernelNR32][]float32, j, cols int, first bool) {
	i := i0
	if pairs := (i1 - i0) / 2; pairs > 0 && tier.Load() == tierAVX512 {
		w := k1 - k0
		bp := [kernelNR32]*float32{&b[0][0], &b[1][0], &b[2][0], &b[3][0], &b[4][0], &b[5][0], &b[6][0], &b[7][0]}
		dot2x8F32AVX512(&a.Data[i0*a.Stride+k0], a.Stride, pairs, &bp, w/lanes32, w%lanes32,
			&dst.Data[i0*dst.Stride+j], dst.Stride, cols, first)
		i += 2 * pairs
	}
	var t [kernelNR32]float32
	for ; i < i1; i++ {
		ai := a.paddedRow(i)[k0:k1]
		dotBatch4F32(ai, b[0], b[1], b[2], b[3], (*[4]float32)(t[:4]))
		dotBatch4F32(ai, b[4], b[5], b[6], b[7], (*[4]float32)(t[4:]))
		c := dst.Row(i)[j : j+cols]
		for x := range c {
			if first {
				c[x] = t[x]
			} else {
				c[x] += t[x]
			}
		}
	}
}

// MulTInto32Fused computes C = A · Bᵀ in float32 into dst (A n×q, B d×q,
// dst n×d) with an optional per-row epilogue, blocked like MulTIntoFused:
// kernelKC-column panels over the shared dimension, 2×8 register tiles
// within a panel, row blocks sharded across the worker pool. post(i,
// dst.Row(i)) runs once the shard's rows are complete and must be safe to
// call concurrently for different rows. dst must not alias A or B. It
// returns dst.
func MulTInto32Fused(dst, a, b *Dense32, post func(i int, row []float32)) *Dense32 {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTInto32 inner dimension mismatch %d vs %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTInto32 dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Cols == 0 {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		if post != nil {
			for i := 0; i < dst.Rows; i++ {
				post(i, dst.Row(i))
			}
		}
		return dst
	}
	blocks := (a.Rows + kernelMR - 1) / kernelMR
	if Serial() || blocks == 1 {
		mulT32Blocks(dst, a, b, post, 0, blocks)
		return dst
	}
	ParallelFor(blocks, func(lo, hi int) {
		mulT32Blocks(dst, a, b, post, lo, hi)
	})
	return dst
}

// mulT32Blocks processes row blocks [lo, hi) of the blocked f32 product
// as merged row ranges capped in bytes of the padded stride (forRanges),
// applying the optional epilogue to each row once its range is complete.
// Each range streams every eight-row B tile from cache once, not once per
// kernelMR rows — at serving shapes B is megabytes and dominates the
// memory traffic — while the cap keeps the range's A rows resident in L2.
func mulT32Blocks(dst, a, b *Dense32, post func(i int, row []float32), lo, hi int) {
	forRanges(lo, hi, a.Rows, 4*min(a.Stride, kernelKC), func(i0, i1 int) {
		mulT32Block(dst, a, b, i0, i1)
		if post != nil {
			for i := i0; i < i1; i++ {
				post(i, dst.Row(i))
			}
		}
	})
}

// mulT32Block computes output rows [i0, i1) of dst = A·Bᵀ with panel
// blocking over the shared dimension, one 2×8 tile call (dot2x8F32) per
// eight-row B tile — the f32 mirror of mulTBlock, with panel
// accumulation in float32. The d%8 remainder columns run the same tile
// with the last B row repeated, and only their cols columns are put. The
// panels run over the full padded stride: the padding columns are zero in
// both operands, so the extra FMA lanes add +0 and the SIMD tiers never
// need a masked tail (every group is a whole 16-lane step).
func mulT32Block(dst, a, b *Dense32, i0, i1 int) {
	q := a.Stride
	d := b.Rows
	var bt [kernelNR32][]float32
	for k0 := 0; k0 < q; k0 += kernelKC {
		k1 := min(k0+kernelKC, q)
		for j := 0; j < d; j += kernelNR32 {
			for c := range bt {
				bt[c] = b.paddedRow(min(j+c, d-1))[k0:k1]
			}
			dot2x8F32(dst, a, i0, i1, k0, k1, &bt, j, min(kernelNR32, d-j), k0 == 0)
		}
	}
}
