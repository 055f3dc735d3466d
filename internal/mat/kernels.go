package mat

import (
	"fmt"
	"math"
)

// This file holds the cache-blocked, register-tiled matrix kernels. The
// destination-passing variants (MulTInto, MulInto) are the primitives; MulT
// and Mul are thin allocating wrappers kept for convenience.
//
// Blocking parameters are sized for a ~48 KiB L1d / ~2 MiB L2 cache:
//
//   - kernelKC columns per shared-dimension panel: a 4-row B tile of one
//     panel is 4·kernelKC·8 B = 32 KiB, which stays L1-resident while the
//     micro-kernels sweep the A rows of the current range over it.
//   - kernelMR rows of A per block, the unit the worker pool shards.
//   - A shard runs its blocks as merged row ranges of up to rangeRows
//     rows, about kernelRangeBytes of A per panel: the range's A rows stay
//     L2-resident across all B tiles, so B is streamed from memory once
//     per merged range, not once per kernelMR rows. At serving shapes B is
//     megabytes (D×q) and dominates the memory traffic.
//
// Within a range the micro-kernels compute a 4×4 tile of C per pass, then
// a 2×4 and a 1×4 tile (DotBatch) for the remaining rows, amortizing each
// A load over four B rows and each B load over up to four A rows.
//
// # Lane semantics
//
// Every micro-kernel output element is accumulated as four strided fused
// multiply-add lanes: panel element i feeds lane i%4 via math.FMA, and the
// lanes reduce as (l0+l2) + (l1+l3) at the end of each panel. This is
// exactly the dataflow of a 4-wide AVX2 VFMADD loop followed by the
// standard extract/add horizontal sum, and of the AVX-512 4×4 tile, where
// one ZMM register holds the four lanes of two outputs (two A rows joined
// in its halves, each B row broadcast to both). On amd64 the inner loops
// dispatch to the assembly kernels in simd_amd64.s by tier (tier.go) —
// same bits, several times the throughput, which is what makes the
// batched serving path (GEMM over cache-resident panels) far outrun
// per-request matrix-vector encoding (bandwidth-bound, SIMD cannot help
// it much). PanelDot reproduces any single output element of the blocked
// product bitwise by replaying the same lanes in pure Go.
const (
	kernelKC         = 1024
	kernelMR         = 8
	kernelNR         = 4
	kernelRangeBytes = 1 << 20
)

// rangeRows is the row cap of one merged range for A rows q wide: the
// most kernelMR-row blocks whose panel slices (min(q, kernelKC) columns)
// fit kernelRangeBytes, at least 128 rows. Without the cap a training
// batch of thousands of rows would cycle its A panel through L3 once per
// B tile.
func rangeRows(q int) int {
	return kernelRangeBytes / (8 * min(q, kernelKC)) / kernelMR * kernelMR
}

// laneFMA folds panel elements [i, n) of a·b into the four accumulator
// lanes at lanes[o:o+4], continuing the stride-4 lane pattern from panel
// index i.
func laneFMA(a, b []float64, i, n, o int, lanes *[32]float64) {
	for ; i < n; i++ {
		lanes[o+i%4] = math.FMA(a[i], b[i], lanes[o+i%4])
	}
}

// laneSum is the kernel's horizontal reduction of one 4-lane group — the
// extract/add order of the AVX2 epilogue.
func laneSum(l0, l1, l2, l3 float64) float64 { return (l0 + l2) + (l1 + l3) }

// laneDot is the canonical single-element kernel: the inner product of one
// panel accumulated in 4 strided FMA lanes. Every micro-kernel output
// element — assembly or pure Go, tiled or remainder — equals laneDot over
// its panels.
func laneDot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var l0, l1, l2, l3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		l0 = math.FMA(a[i], b[i], l0)
		l1 = math.FMA(a[i+1], b[i+1], l1)
		l2 = math.FMA(a[i+2], b[i+2], l2)
		l3 = math.FMA(a[i+3], b[i+3], l3)
	}
	if i < n {
		l0 = math.FMA(a[i], b[i], l0)
		if i+1 < n {
			l1 = math.FMA(a[i+1], b[i+1], l1)
		}
		if i+2 < n {
			l2 = math.FMA(a[i+2], b[i+2], l2)
		}
	}
	return laneSum(l0, l1, l2, l3)
}

// laneDot2 computes two lane dots sharing b — the remainder-column kernel
// for a pair of A rows.
func laneDot2(a0, a1, b []float64) (s0, s1 float64) {
	n := len(a0)
	a1, b = a1[:n], b[:n]
	var lanes [32]float64
	i := 0
	for ; i+4 <= n; i += 4 {
		for k := 0; k < 4; k++ {
			bv := b[i+k]
			lanes[k] = math.FMA(a0[i+k], bv, lanes[k])
			lanes[4+k] = math.FMA(a1[i+k], bv, lanes[4+k])
		}
	}
	laneFMA(a0, b, i, n, 0, &lanes)
	laneFMA(a1, b, i, n, 4, &lanes)
	return laneSum(lanes[0], lanes[1], lanes[2], lanes[3]),
		laneSum(lanes[4], lanes[5], lanes[6], lanes[7])
}

// DotBatch computes the four inner products of a with b0..b3 in a single
// pass over a — the 1×4 micro-kernel behind MulTInto. All five slices must
// have equal length. Each result equals laneDot of its pair.
func DotBatch(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	n := len(a)
	if len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic("mat: DotBatch length mismatch")
	}
	if n >= 4 && tier.Load() >= tierAVX2 {
		var out [4]float64
		dotBatch4AVX(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n/4, n%4, &laneMasks, &out)
		return out[0], out[1], out[2], out[3]
	}
	var lanes [32]float64
	i := 0
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; i+4 <= n; i += 4 {
		for k := 0; k < 4; k++ {
			av := a[i+k]
			lanes[k] = math.FMA(av, b0[i+k], lanes[k])
			lanes[4+k] = math.FMA(av, b1[i+k], lanes[4+k])
			lanes[8+k] = math.FMA(av, b2[i+k], lanes[8+k])
			lanes[12+k] = math.FMA(av, b3[i+k], lanes[12+k])
		}
	}
	laneFMA(a, b0, i, n, 0, &lanes)
	laneFMA(a, b1, i, n, 4, &lanes)
	laneFMA(a, b2, i, n, 8, &lanes)
	laneFMA(a, b3, i, n, 12, &lanes)
	return laneSum(lanes[0], lanes[1], lanes[2], lanes[3]),
		laneSum(lanes[4], lanes[5], lanes[6], lanes[7]),
		laneSum(lanes[8], lanes[9], lanes[10], lanes[11]),
		laneSum(lanes[12], lanes[13], lanes[14], lanes[15])
}

// dot2x4 is the 2×4 register tile: two A rows against four B rows, eight
// output elements, 32 FMA lanes in flight. Lengths must match (callers
// slice to the current panel). Each result equals laneDot of its pair.
func dot2x4(a0, a1, b0, b1, b2, b3 []float64) (r00, r01, r02, r03, r10, r11, r12, r13 float64) {
	n := len(a0)
	if n >= 4 && tier.Load() >= tierAVX2 {
		var out [8]float64
		dot2x4AVX(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], n/4, n%4, &laneMasks, &out)
		return out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7]
	}
	var lanes [32]float64
	i := 0
	a1, b0, b1, b2, b3 = a1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	for ; i+4 <= n; i += 4 {
		for k := 0; k < 4; k++ {
			a0v, a1v := a0[i+k], a1[i+k]
			b0v, b1v, b2v, b3v := b0[i+k], b1[i+k], b2[i+k], b3[i+k]
			lanes[k] = math.FMA(a0v, b0v, lanes[k])
			lanes[4+k] = math.FMA(a0v, b1v, lanes[4+k])
			lanes[8+k] = math.FMA(a0v, b2v, lanes[8+k])
			lanes[12+k] = math.FMA(a0v, b3v, lanes[12+k])
			lanes[16+k] = math.FMA(a1v, b0v, lanes[16+k])
			lanes[20+k] = math.FMA(a1v, b1v, lanes[20+k])
			lanes[24+k] = math.FMA(a1v, b2v, lanes[24+k])
			lanes[28+k] = math.FMA(a1v, b3v, lanes[28+k])
		}
	}
	laneFMA(a0, b0, i, n, 0, &lanes)
	laneFMA(a0, b1, i, n, 4, &lanes)
	laneFMA(a0, b2, i, n, 8, &lanes)
	laneFMA(a0, b3, i, n, 12, &lanes)
	laneFMA(a1, b0, i, n, 16, &lanes)
	laneFMA(a1, b1, i, n, 20, &lanes)
	laneFMA(a1, b2, i, n, 24, &lanes)
	laneFMA(a1, b3, i, n, 28, &lanes)
	return laneSum(lanes[0], lanes[1], lanes[2], lanes[3]),
		laneSum(lanes[4], lanes[5], lanes[6], lanes[7]),
		laneSum(lanes[8], lanes[9], lanes[10], lanes[11]),
		laneSum(lanes[12], lanes[13], lanes[14], lanes[15]),
		laneSum(lanes[16], lanes[17], lanes[18], lanes[19]),
		laneSum(lanes[20], lanes[21], lanes[22], lanes[23]),
		laneSum(lanes[24], lanes[25], lanes[26], lanes[27]),
		laneSum(lanes[28], lanes[29], lanes[30], lanes[31])
}

// dot4x4 is the 4×4 register tile: four A rows against four B rows,
// out[4r+c] = laneDot(a_r, b_c). The AVX-512 tier runs it as one kernel;
// the other tiers compose it from two 2×4 tiles, which is bit-identical
// because the sixteen outputs are independent lane dots.
func dot4x4(a0, a1, a2, a3, b0, b1, b2, b3 []float64, out *[16]float64) {
	n := len(a0)
	if n >= 4 && tier.Load() == tierAVX512 {
		dot4x4AVX512(&a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], &b2[0], &b3[0], n/4, n%4, out)
		return
	}
	out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = dot2x4(a0, a1, b0, b1, b2, b3)
	out[8], out[9], out[10], out[11], out[12], out[13], out[14], out[15] = dot2x4(a2, a3, b0, b1, b2, b3)
}

// PanelDot returns the inner product of a and b accumulated in the same
// panel-wise lane order as the MulTInto micro-kernels: kernelKC-column
// panels summed left to right, 4 strided FMA lanes within each panel. Use
// it to recompute a single element of a blocked product (e.g. one
// regenerated encoder dimension) bitwise-identically to the batch kernel.
// For plain dot products prefer Dot, which skips the lane bookkeeping.
func PanelDot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: PanelDot length mismatch")
	}
	var s float64
	for k0 := 0; k0 < len(a); k0 += kernelKC {
		k1 := k0 + kernelKC
		if k1 > len(a) {
			k1 = len(a)
		}
		p := laneDot(a[k0:k1], b[k0:k1])
		if k0 == 0 {
			s = p
		} else {
			s += p
		}
	}
	return s
}

// MulTInto computes C = A · Bᵀ into dst, where A is n×q and B is d×q and
// dst is n×d. This is the layout of both HDC hot paths: encoding (rows of B
// are base hypervectors) and batched similarity (rows of B are class
// hypervectors). dst must not alias A or B. It returns dst.
//
// Row blocks are distributed across the worker pool; each shard runs its
// blocks as merged row ranges, cache-blocked over the shared dimension and
// register-tiled 4×4, 2×4 and 1×4, so results are bitwise deterministic
// regardless of scheduling or tier (each output element is accumulated in
// a fixed panel order by exactly one goroutine, reproducible element-wise
// by PanelDot).
func MulTInto(dst, a, b *Dense) *Dense {
	return MulTIntoFused(dst, a, b, nil)
}

// MulTIntoFused is MulTInto with an optional elementwise epilogue: as soon
// as a merged row range of the product is complete, post(i, dst.Row(i))
// runs on each of its rows, which are then still in cache (a range's
// output is at most a few MiB; at serving shapes a shard's is 256 KiB).
// This is how batch encoding fuses its nonlinearity onto the GEMM instead
// of making a second pass over the whole (much larger than L2) output.
// post must be safe to call concurrently for different rows; a nil post
// is a plain product.
func MulTIntoFused(dst, a, b *Dense, post func(i int, row []float64)) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTInto inner dimension mismatch %d vs %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Cols == 0 {
		dst.Fill(0)
		if post != nil {
			for i := 0; i < dst.Rows; i++ {
				post(i, dst.Row(i))
			}
		}
		return dst
	}
	blocks := (a.Rows + kernelMR - 1) / kernelMR
	if Serial() || blocks == 1 {
		// Skip the shard closure entirely: zero allocations.
		mulTBlocks(dst, a, b, post, 0, blocks)
		return dst
	}
	ParallelFor(blocks, func(lo, hi int) {
		mulTBlocks(dst, a, b, post, lo, hi)
	})
	return dst
}

// mulTBlocks processes row blocks [lo, hi) of the blocked product as
// merged row ranges of up to rangeRows rows, applying the optional
// epilogue to each row once its range is complete. Each range streams
// every four-row B tile once, as mulT32Blocks does for the f32 product.
func mulTBlocks(dst, a, b *Dense, post func(i int, row []float64), lo, hi int) {
	end := min(hi*kernelMR, a.Rows)
	step := rangeRows(a.Cols)
	for i0 := lo * kernelMR; i0 < end; i0 += step {
		i1 := min(i0+step, end)
		mulTBlock(dst, a, b, i0, i1)
		if post != nil {
			for i := i0; i < i1; i++ {
				post(i, dst.Row(i))
			}
		}
	}
}

// putTile stores the four results s of one tile row into c[j:j+4] for the
// first panel, and adds them to it for later panels.
func putTile(c []float64, j int, s []float64, first bool) {
	c, s = c[j:j+4], s[:4]
	if first {
		c[0], c[1], c[2], c[3] = s[0], s[1], s[2], s[3]
		return
	}
	c[0] += s[0]
	c[1] += s[1]
	c[2] += s[2]
	c[3] += s[3]
}

// mulTBlock computes output rows [i0, i1) of dst = A·Bᵀ with panel blocking
// over the shared dimension and 4×4, 2×4 and 1×4 register tiles.
func mulTBlock(dst, a, b *Dense, i0, i1 int) {
	q := a.Cols
	d := b.Rows
	var t [16]float64
	for k0 := 0; k0 < q; k0 += kernelKC {
		k1 := min(k0+kernelKC, q)
		first := k0 == 0
		j := 0
		for ; j+kernelNR <= d; j += kernelNR {
			b0 := b.Row(j)[k0:k1]
			b1 := b.Row(j + 1)[k0:k1]
			b2 := b.Row(j + 2)[k0:k1]
			b3 := b.Row(j + 3)[k0:k1]
			i := i0
			for ; i+4 <= i1; i += 4 {
				dot4x4(a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1], a.Row(i + 2)[k0:k1], a.Row(i + 3)[k0:k1],
					b0, b1, b2, b3, &t)
				putTile(dst.Row(i), j, t[0:4], first)
				putTile(dst.Row(i+1), j, t[4:8], first)
				putTile(dst.Row(i+2), j, t[8:12], first)
				putTile(dst.Row(i+3), j, t[12:16], first)
			}
			if i+2 <= i1 {
				t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = dot2x4(
					a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1], b0, b1, b2, b3)
				putTile(dst.Row(i), j, t[0:4], first)
				putTile(dst.Row(i+1), j, t[4:8], first)
				i += 2
			}
			if i < i1 {
				t[0], t[1], t[2], t[3] = DotBatch(a.Row(i)[k0:k1], b0, b1, b2, b3)
				putTile(dst.Row(i), j, t[0:4], first)
			}
		}
		// Remainder columns (d % 4) use the same 4-lane FMA kernels so
		// every output element, tiled or not, is reproducible by PanelDot.
		for ; j < d; j++ {
			bj := b.Row(j)[k0:k1]
			i := i0
			for ; i+2 <= i1; i += 2 {
				s0, s1 := laneDot2(a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1], bj)
				if first {
					dst.Row(i)[j] = s0
					dst.Row(i + 1)[j] = s1
				} else {
					dst.Row(i)[j] += s0
					dst.Row(i + 1)[j] += s1
				}
			}
			if i < i1 {
				s := laneDot(a.Row(i)[k0:k1], bj)
				if first {
					dst.Row(i)[j] = s
				} else {
					dst.Row(i)[j] += s
				}
			}
		}
	}
}

// MulT computes C = A · Bᵀ into a freshly allocated matrix. See MulTInto.
func MulT(a, b *Dense) *Dense {
	return MulTInto(New(a.Rows, b.Rows), a, b)
}

// MulInto computes the ordinary product C = A · B into dst, with A n×k and
// B k×m and dst n×m. dst must not alias A or B. The ikj loop order streams
// rows of B and C; rows of the output are sharded across the worker pool.
// It returns dst.
func MulInto(dst, a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulInto inner dimension mismatch %d vs %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if Serial() {
		mulRows(dst, a, b, 0, a.Rows)
		return dst
	}
	ParallelFor(a.Rows, func(lo, hi int) {
		mulRows(dst, a, b, lo, hi)
	})
	return dst
}

// mulRows computes output rows [lo, hi) of the ordinary product in ikj
// order.
func mulRows(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		ci := dst.Row(i)
		for j := range ci {
			ci[j] = 0
		}
		for k := 0; k < a.Cols; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			Axpy(ci, aik, b.Row(k))
		}
	}
}

// Mul computes C = A · B into a freshly allocated matrix. See MulInto.
func Mul(a, b *Dense) *Dense {
	return MulInto(New(a.Rows, b.Cols), a, b)
}
