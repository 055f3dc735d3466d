package mat

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
)

// laneDot32 is the canonical single-element f32 kernel: the inner
// product of one panel accumulated in 16 strided fma32 lanes. Every
// micro-kernel output element — assembly or pure Go, tiled or remainder
// — equals laneDot32 over its panels.
func laneDot32(a, b []float32) float32 {
	var lanes [64]float32
	laneFMA32(a, b[:len(a)], 0, len(a), 0, &lanes)
	return laneSum32(&lanes, 0)
}

// PanelDot32 returns the inner product of a and b accumulated in the
// same panel-wise lane order as the MulTInto32Fused micro-kernels:
// kernelKC-column panels summed left to right (in float32), 16 strided
// fma32 lanes within each panel. Use it to recompute any single element
// of the blocked f32 product bitwise-identically to the batch kernels.
func PanelDot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("mat: PanelDot32 length mismatch")
	}
	var s float32
	for k0 := 0; k0 < len(a); k0 += kernelKC {
		k1 := k0 + kernelKC
		if k1 > len(a) {
			k1 = len(a)
		}
		p := laneDot32(a[k0:k1], b[k0:k1])
		if k0 == 0 {
			s = p
		} else {
			s += p
		}
	}
	return s
}

// fillPseudo32 deterministically fills a slice with sign-mixed values.
func fillPseudo32(xs []float32, seed float64) {
	v := seed
	for i := range xs {
		v = v*1.000000059604644775390625 + 0.013671875
		if v > 2 {
			v -= 3.5
		}
		xs[i] = float32(v)
	}
}

// fillDense32 fills the logical elements of a padded Dense32 row by row,
// preserving the zero padding columns the kernels run over.
func fillDense32(m *Dense32, seed float64) {
	v := seed
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			v = v*1.000000059604644775390625 + 0.013671875
			if v > 2 {
				v -= 3.5
			}
			row[j] = float32(v)
		}
	}
}

// refFMA32 computes the correctly-rounded float32 a·b+c through
// big.Float at full precision — the oracle fma32 must match.
func refFMA32(a, b, c float32) float32 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) || math.IsNaN(float64(c)) {
		return float32(math.NaN())
	}
	if math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) || math.IsInf(float64(c), 0) {
		// big.Float panics on Inf-Inf / Inf·0; float64 arithmetic is
		// exact for any finite float32 product, so Inf propagation and
		// the NaN cases come out right.
		return float32(float64(a)*float64(b) + float64(c))
	}
	var p, s big.Float
	p.SetPrec(200).SetFloat64(float64(a))
	p.Mul(&p, new(big.Float).SetFloat64(float64(b)))
	s.SetPrec(200).SetFloat64(float64(c))
	s.Add(&s, &p)
	f, _ := s.Float32()
	return f
}

// TestFMA32MatchesCorrectRounding proves the software fma32 is the
// correctly-rounded fused multiply-add on random values, near-boundary
// adversarial cases, and the special values — the property that makes
// the Go fallback bit-identical to the hardware VFMADD231PS lanes.
func TestFMA32MatchesCorrectRounding(t *testing.T) {
	check := func(a, b, c float32) {
		t.Helper()
		got, want := fma32(a, b, c), refFMA32(a, b, c)
		if got != want && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
			t.Fatalf("fma32(%g, %g, %g) = %g (%08x), want %g (%08x)",
				a, b, c, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200000; i++ {
		a := float32(rng.NormFloat64())
		b := float32(rng.NormFloat64())
		// Bias c toward -a·b so the addition cancels and the rounding
		// boundary cases (where double rounding would bite) are hit.
		c := -a * b * (1 + float32(rng.NormFloat64())*1e-3)
		if i%3 == 0 {
			c = float32(rng.NormFloat64())
		}
		check(a, b, c)
	}
	// Tiny/huge magnitudes: subnormal products and near-overflow sums.
	for i := 0; i < 20000; i++ {
		a := float32(math.Ldexp(1+rng.Float64(), rng.Intn(280)-140))
		b := float32(math.Ldexp(1+rng.Float64(), rng.Intn(280)-140))
		c := float32(math.Ldexp(1+rng.Float64(), rng.Intn(280)-140))
		if rng.Intn(2) == 0 {
			c = -c
		}
		check(a, b, c)
	}
	inf := float32(math.Inf(1))
	for _, tc := range [][3]float32{
		{0, 0, 0}, {0, 0, float32(math.Copysign(0, -1))},
		{inf, 1, 1}, {1, inf, -inf}, {inf, 0, 1},
		{float32(math.NaN()), 1, 1}, {1, 1, float32(math.NaN())},
		{math.MaxFloat32, math.MaxFloat32, -inf},
		{math.MaxFloat32, 2, math.MaxFloat32},
		{1.0000001, 1.0000001, -1},
	} {
		check(tc[0], tc[1], tc[2])
	}
}

// TestF32KernelsMatchGoLanes pins the dispatching f32 micro-kernels — the
// 1×4 tile and the 2×8 tile, storing, adding and storing fewer columns —
// to the pure-Go lane kernels bitwise across every ISA tier the host
// supports, over aligned and ragged lengths, for sign-mixed inputs and
// for inputs whose every product underflows to -0 — the f32 mirror of
// TestSIMDKernelsMatchGoLanes, with the tiers forced through setTier.
func TestF32KernelsMatchGoLanes(t *testing.T) {
	if bestTier == tierGeneric {
		t.Log("no f32 SIMD tier: dispatcher always uses the Go lanes")
	}
	tiers := []int32{tierGeneric, tierAVX2, tierAVX512}
	for _, c := range []struct {
		n         int
		underflow bool
	}{
		{1, false}, {3, false}, {8, false}, {15, false}, {16, false}, {17, false}, {31, false}, {32, false},
		{63, false}, {64, false}, {65, false}, {127, false}, {561, false}, {1024, false}, {2000, false},
		{16, true}, {17, true}, {24, true}, {31, true}, {561, true},
	} {
		n := c.n
		a := NewDense32(2, n)
		rows := NewDense32(kernelNR32, n)
		fillPseudo32(a.Row(0), 0.1)
		fillPseudo32(a.Row(1), -0.7)
		fillDense32(rows, 0.3)
		if c.underflow {
			// -1e-30·1e-30 underflows to -0 in float32: from n = 16 on
			// every lane and every lane dot is -0.
			for r := 0; r < 2; r++ {
				for i := range a.Row(r) {
					a.Row(r)[i] = -1e-30
				}
			}
			for r := 0; r < kernelNR32; r++ {
				for j := range rows.Row(r) {
					rows.Row(r)[j] = 1e-30
				}
			}
		}
		var bt [kernelNR32][]float32
		for r := range bt {
			bt[r] = rows.Row(r)
		}

		// laneDot32 is the canonical definition every element must equal:
		// want[8r+c] is A row r against B row c.
		var want [2 * kernelNR32]float32
		for i := range want {
			want[i] = laneDot32(a.Row(i/kernelNR32), bt[i%kernelNR32])
		}
		if c.underflow && math.Float32bits(want[0]) != 1<<31 {
			t.Fatalf("n=%d: laneDot32 of underflowing products is %g, want -0", n, want[0])
		}

		for _, lvl := range tiers {
			if lvl > bestTier {
				continue
			}
			prev := setTier(lvl)
			var t4 [4]float32
			dotBatch4F32(a.Row(0), bt[0], bt[1], bt[2], bt[3], &t4)
			for i, got := range t4 {
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					setTier(prev)
					t.Fatalf("n=%d tier=%d dotBatch4F32 lane %d: %g != laneDot32 %g", n, lvl, i, got, want[i])
				}
			}
			// The tile stores all eight columns, then adds to the first
			// five and leaves the other three as stored.
			dst := NewDense32(2, kernelNR32)
			dot2x8F32(dst, a, 0, 2, 0, n, &bt, 0, kernelNR32, true)
			for i, w := range want {
				if got := dst.Row(i / kernelNR32)[i%kernelNR32]; math.Float32bits(got) != math.Float32bits(w) {
					setTier(prev)
					t.Fatalf("n=%d tier=%d dot2x8F32 element %d: %g != laneDot32 %g", n, lvl, i, got, w)
				}
			}
			dot2x8F32(dst, a, 0, 2, 0, n, &bt, 0, 5, false)
			for i, w := range want {
				if i%kernelNR32 < 5 {
					w += w
				}
				if got := dst.Row(i / kernelNR32)[i%kernelNR32]; math.Float32bits(got) != math.Float32bits(w) {
					setTier(prev)
					t.Fatalf("n=%d tier=%d dot2x8F32 adding 5 columns, element %d: %g, want %g", n, lvl, i, got, w)
				}
			}
			setTier(prev)
		}
	}
}

// TestMulTInto32TiersBitIdentical computes full blocked f32 products on
// every supported ISA tier at GOMAXPROCS 1, 2 and 4 and requires every
// output bit to equal PanelDot32's — ragged shapes exercise the 2×8
// tile's row-pair walk, the odd last row's 1×4 tiles, every d%8 remainder
// (the tile with the last B row repeated), the multi-panel path where the
// tile adds into dst, ranges past the rangeRows cap (224 rows at
// q = 561), and the served 1-bit shape (64 × 617 → 1024).
func TestMulTInto32TiersBitIdentical(t *testing.T) {
	defer setTier(setTier(bestTier))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ n, q, d int }{
		{1, 1, 1}, {2, 16, 4}, {3, 17, 5}, {8, 64, 12}, {5, 561, 11},
		{13, 700, 9}, {7, 1030, 6}, {64, 2048, 3}, {9, 3000, 8},
		{15, 2100, 17},
		{460, 561, 5}, // ranges of 224, 224 and 12 rows at GOMAXPROCS 1
		{64, 617, 1024},
	}
	for d := 9; d <= 15; d++ { // every d%8 on an odd and an even row count
		shapes = append(shapes, struct{ n, q, d int }{d - 6, 3 * d, d}, struct{ n, q, d int }{d - 5, 1024 + d, d})
	}
	if 460 <= rangeRows(4*Stride32(561)) {
		t.Fatal("the merged-range shape no longer outgrows the rangeRows cap")
	}
	for _, sh := range shapes {
		a := NewDense32(sh.n, sh.q)
		b := NewDense32(sh.d, sh.q)
		fillDense32(a, 0.25)
		fillDense32(b, -0.5)

		want := NewDense32(sh.n, sh.d)
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.d; j++ {
				want.Row(i)[j] = PanelDot32(a.paddedRow(i), b.paddedRow(j))
			}
		}
		for _, lvl := range hostTiers() {
			for _, procs := range []int{1, 2, 4} {
				setTier(lvl)
				runtime.GOMAXPROCS(procs)
				dst := MulTInto32Fused(NewDense32(sh.n, sh.d), a, b, nil)
				for i := range want.Data {
					if math.Float32bits(dst.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%dx%dx%d %s procs=%d element %d: blocked %g != PanelDot32 %g",
							sh.n, sh.q, sh.d, tierName(lvl), procs, i, dst.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestMulTInto32FusedPost checks the fused epilogue runs exactly once
// per row with the finished row contents.
func TestMulTInto32FusedPost(t *testing.T) {
	a := NewDense32(11, 37)
	b := NewDense32(6, 37)
	fillDense32(a, 0.4)
	fillDense32(b, 0.9)
	seen := make([]int, 11)
	MulTInto32Fused(NewDense32(11, 6), a, b, func(i int, row []float32) {
		seen[i]++
		for j := range row {
			if row[j] != PanelDot32(a.paddedRow(i), b.paddedRow(j)) {
				t.Errorf("post row %d col %d not finished", i, j)
			}
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("post ran %d times for row %d", c, i)
		}
	}
}

// BenchmarkMulTInto32 measures the f32 projection GEMM at serving
// shapes: a 64-row batch of UCIHAR-like 561 features against D = 256 and
// 2048 — the packed tier's answer to BenchmarkMulTInto — and the served
// 1-bit tenant's 617 features → D = 1024.
func BenchmarkMulTInto32(b *testing.B) {
	for _, sh := range []struct {
		name string
		q, d int
	}{{"D=256", 561, 256}, {"D=2048", 561, 2048}, {"q=617/D=1024", 617, 1024}} {
		b.Run(sh.name, func(b *testing.B) {
			a := NewDense32(64, sh.q)
			bb := NewDense32(sh.d, sh.q)
			dst := NewDense32(64, sh.d)
			fillDense32(a, 0.1)
			fillDense32(bb, 0.7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTInto32Fused(dst, a, bb, nil)
			}
		})
	}
}
