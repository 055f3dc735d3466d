package mat

import (
	"fmt"
	"math"
	"runtime"
	"unsafe"
)

// This file holds the cache-blocked, register-tiled matrix kernels behind
// MulTInto, which writes into a caller-owned destination.
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
//     megabytes (D×q) and dominates the memory traffic. The cap is a
//     quarter of L2, since a packed range (below) holds its rows twice,
//     once as read and once packed: at 2600 × 561 → 1024 a 512-KiB cap
//     runs 10–15 % faster than 1 MiB for f64 and about 20 % for f32.
//
// Within a range the micro-kernels compute a 4×4 tile of C per pass, then
// a 2×4 and a 1×4 tile (DotBatch) for the remaining rows, amortizing each
// A load over four B rows and each B load over up to four A rows. On the
// AVX-512 tier a product with at least packMinRows B rows instead packs
// the whole 8-row groups of each panel of the range once (packA) and runs
// them through one 8×4 tile; the rows after the last whole group take the
// smaller tiles.
//
// # Lane semantics
//
// Every micro-kernel output element is accumulated as four strided fused
// multiply-add lanes: panel element i feeds lane i%4 via math.FMA, and the
// lanes reduce as (l0+l2) + (l1+l3) at the end of each panel. This is
// exactly the dataflow of a 4-wide AVX2 VFMADD loop followed by the
// standard extract/add horizontal sum, and of the AVX-512 tiles, where
// one ZMM register holds the four lanes of two outputs (two A rows in its
// halves, each B row broadcast to both by VBROADCASTF64X4). On amd64 the
// inner loops dispatch to the assembly kernels in simd_amd64.s by tier
// (tier.go) — same bits, several times the throughput, which is what
// makes the batched serving path (GEMM over cache-resident panels) far
// outrun per-request matrix-vector encoding (bandwidth-bound, SIMD cannot
// help it much). PanelDot reproduces any single output element of the
// blocked product bitwise by replaying the same lanes in pure Go.
//
// # Packed A
//
// The 4×4 tile reads A rows in place and joins each pair into one ZMM
// with VINSERTF64X4: two of every ten slots of its step go to that
// shuffle, which runs on the port the second 512-bit FMA unit shares. The
// packed layout stores each row pair already joined: a panel's rows are
// cut into 8-row groups, and each 4-column step of a group holds the four
// columns of its eight rows in row order, so a pair is one aligned 64-byte
// ZMM load, zero-padded in the last step (q%4 columns). The 8×4 tile then
// issues 4 A loads and 4 B broadcasts per 16 FMAs with no shuffle, and
// sums its 32 outputs in laneSum order. The pack is one extra pass over
// the A panel, repaid once per four-row B tile: a projection base's
// hundreds of rows repay it many times, the dozen class rows of a scoring
// GEMM do not (packMinRows). Rows short of a whole group (rows%8, and a
// product under 8 rows such as a single-row encode) take the unpacked
// tiles: a zero-padded group would compute up to eight rows for one.
const (
	kernelKC         = 1024
	kernelMR         = 8
	kernelNR         = 4
	kernelRangeBytes = 1 << 19
)

// rangeRows is the row cap of one merged range whose A rows hold
// panelBytes bytes of one panel: the most kernelMR-row blocks that fit
// kernelRangeBytes (at least 64 rows for float64 panels, 128 for
// float32). Without the cap a training batch of thousands of rows would
// cycle its A panel through L3 once per B tile.
func rangeRows(panelBytes int) int {
	return max(kernelRangeBytes/panelBytes/kernelMR*kernelMR, kernelMR)
}

// forRanges runs f over row blocks [lo, hi) of an n-row product as
// merged row ranges [i0, i1) of at most rangeRows(panelBytes) rows — the
// one capped loop of both precisions' blocked products.
func forRanges(lo, hi, n, panelBytes int, f func(i0, i1 int)) {
	end := min(hi*kernelMR, n)
	step := rangeRows(panelBytes)
	for i0 := lo * kernelMR; i0 < end; i0 += step {
		f(i0, min(i0+step, end))
	}
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
// register-tiled (8×4 over packed A, or 4×4, 2×4 and 1×4), so results are
// bitwise deterministic regardless of scheduling or tier (each output
// element is accumulated in a fixed panel order by exactly one goroutine,
// reproducible element-wise by PanelDot).
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
// is a plain product. Every range starts on a multiple of kernelMR (8)
// rows and post sees its rows in increasing order, so when post reaches
// the last row of an aligned group of at most eight rows, the whole group
// is complete (the scoring epilogue takes its row norms four rows at a
// time this way).
//
// The row blocks are sharded by ParallelFor's rule: GOMAXPROCS ÷ the
// ParallelFor calls in flight, so a lone product spreads over every core
// and concurrent products (two served frames) each stay on one, streaming
// B once each. A packed product (AVX-512, at least packMinRows B rows)
// leases one pack buffer per running shard from a pool, sized for one
// range (at most about kernelRangeBytes; 282 KiB for a 64-row frame at
// q = 561 run inline), and reuses it for every range and panel of the
// shard.
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
// merged row ranges (forRanges), applying the optional epilogue to each
// row once its range is complete. Each range streams every four-row B
// tile once, as mulT32Blocks does for the f32 product. When packsA
// chooses the 8×4 tile, the shard leases one pack buffer sized for one
// range and reuses it for each of its ranges and panels.
func mulTBlocks(dst, a, b *Dense, post func(i int, row []float64), lo, hi int) {
	panel := min(a.Cols, kernelKC)
	var lease *Scratch
	var pack []float64
	if rows := min(hi*kernelMR, a.Rows) - lo*kernelMR; rows >= 8 && packsA(b.Rows) {
		lease, pack = getPack(min(rangeRows(8*panel), rows&^7) * ((panel + 3) &^ 3))
	}
	forRanges(lo, hi, a.Rows, 8*panel, func(i0, i1 int) {
		mulTBlock(dst, a, b, i0, i1, pack)
		if post != nil {
			for i := i0; i < i1; i++ {
				post(i, dst.Row(i))
			}
		}
	})
	if lease != nil {
		putPack(lease)
	}
}

// packMinRows is the fewest B rows for which packsA packs A. Packing
// costs one extra pass over the A panel, which the 8×4 tile repays once
// per four-row B tile: at 12 class rows (the scoring GEMM) the pass costs
// more than the tile saves, at a projection base's hundreds of rows it is
// noise.
const packMinRows = 64

// packsA reports whether a product with bRows B rows runs the packed 8×4
// tile: the AVX-512 tier, and enough B rows to repay the pack. Other
// products run the unpacked 4×4, 2×4 and 1×4 tiles, same bits.
func packsA(bRows int) bool {
	return tier.Load() == tierAVX512 && bRows >= packMinRows
}

// packFree holds the idle pack buffers (each at most one range, about
// kernelRangeBytes): one is leased per running shard of a packed product
// and handed back when the shard ends. It is a buffered channel, not a
// sync.Pool, so buffers survive garbage collections and the race
// detector's random pool drops (the zero-allocation pins hold under
// -race), and any core can reuse any buffer. It keeps at most twice the
// start-up GOMAXPROCS idle buffers; surplus ones go to the collector.
var packFree = make(chan *Scratch, 2*runtime.GOMAXPROCS(0))

// getPack leases a pack buffer of n float64s starting on a 64-byte
// boundary, so each pair step of packA is one aligned ZMM load. Hand the
// lease back with putPack.
func getPack(n int) (*Scratch, []float64) {
	var s *Scratch
	select {
	case s = <-packFree:
	default:
		s = new(Scratch)
	}
	if cap(s.Buf) < n+7 {
		s.Buf = make([]float64, n+7)
	}
	buf := s.Buf[:cap(s.Buf)]
	off := int(-uintptr(unsafe.Pointer(&buf[0])) % 64 / 8)
	return s, buf[off : off+n]
}

// putPack hands a getPack lease back for reuse.
func putPack(s *Scratch) {
	select {
	case packFree <- s:
	default:
	}
}

// packA copies rows [i0, i1) of A's panel [k0, k1) into p in the layout
// dot8x4AVX512 reads, and returns the float64 stride of one 8-row group;
// i1-i0 must be a multiple of 8. Each 4-column step of a group holds the
// four columns of its eight rows in row order, so a row pair (2p, 2p+1)
// is one 64-byte ZMM. Columns past k1 (in the last step) are zero.
func packA(p []float64, a *Dense, i0, i1, k0, k1 int) int {
	w := k1 - k0
	steps := (w + 3) / 4
	stride := 32 * steps
	for r := 0; r < i1-i0; r++ {
		o := r/8*stride + r%8*4
		row := a.Row(i0 + r)[k0:k1]
		s := 0
		for ; 4*s+4 <= w; s++ {
			x := row[4*s : 4*s+4]
			d := p[o+32*s : o+32*s+4]
			d[0], d[1], d[2], d[3] = x[0], x[1], x[2], x[3]
		}
		if s < steps {
			d := p[o+32*s : o+32*s+4]
			clear(d[copy(d, row[4*s:]):])
		}
	}
	return stride
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

// putCols is putTile for the len(c) < 4 columns of a remainder tile; it
// is kept apart so that putTile stays small enough to inline.
func putCols(c, s []float64, first bool) {
	for x := range c {
		if first {
			c[x] = s[x]
		} else {
			c[x] += s[x]
		}
	}
}

// mulTBlock computes output rows [i0, i1) of dst = A·Bᵀ with panel blocking
// over the shared dimension: with a pack buffer, each panel's whole 8-row
// groups are packed once and run the 8×4 tile; the rows after them (and
// every row without a pack buffer) run the 4×4, 2×4 and 1×4 tiles.
func mulTBlock(dst, a, b *Dense, i0, i1 int, pack []float64) {
	q := a.Cols
	d := b.Rows
	var t [16]float64
	var t32 [32]float64
	for k0 := 0; k0 < q; k0 += kernelKC {
		k1 := min(k0+kernelKC, q)
		first := k0 == 0
		w := k1 - k0
		packed, stride := i0, 0 // rows [i0, packed) run the packed 8×4 tile
		if pack != nil {
			packed += (i1 - i0) &^ 7
			stride = packA(pack, a, i0, packed, k0, k1)
		}
		j := 0
		for ; j+kernelNR <= d; j += kernelNR {
			b0 := b.Row(j)[k0:k1]
			b1 := b.Row(j + 1)[k0:k1]
			b2 := b.Row(j + 2)[k0:k1]
			b3 := b.Row(j + 3)[k0:k1]
			i := i0
			for g := 0; i < packed; g, i = g+stride, i+8 {
				dot8x4AVX512(&pack[g], &b0[0], &b1[0], &b2[0], &b3[0], w/4, w%4, &t32)
				for r := range 8 {
					putTile(dst.Row(i+r), j, t32[4*r:], first)
				}
			}
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
		if j == d {
			continue
		}
		// The d%4 remainder columns run the 4×4, 2×4 and 1×4 tiles with the
		// last B row repeated, and putCols drops the extra outputs: each
		// output is an independent lane dot, so every element, tiled or
		// not, is reproducible by PanelDot.
		b0 := b.Row(j)[k0:k1]
		b1 := b.Row(min(j+1, d-1))[k0:k1]
		b2 := b.Row(d - 1)[k0:k1]
		i := i0
		for ; i+4 <= i1; i += 4 {
			dot4x4(a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1], a.Row(i + 2)[k0:k1], a.Row(i + 3)[k0:k1],
				b0, b1, b2, b2, &t)
			for r := range 4 {
				putCols(dst.Row(i + r)[j:], t[4*r:], first)
			}
		}
		if i+2 <= i1 {
			t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = dot2x4(
				a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1], b0, b1, b2, b2)
			putCols(dst.Row(i)[j:], t[0:4], first)
			putCols(dst.Row(i + 1)[j:], t[4:8], first)
			i += 2
		}
		if i < i1 {
			t[0], t[1], t[2], t[3] = DotBatch(a.Row(i)[k0:k1], b0, b1, b2, b2)
			putCols(dst.Row(i)[j:], t[0:4], first)
		}
	}
}
