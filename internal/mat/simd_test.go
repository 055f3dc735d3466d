package mat

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

// fillPseudo deterministically fills a slice with sign-mixed values.
func fillPseudo(xs []float64, seed float64) {
	v := seed
	for i := range xs {
		v = v*1.000000059604644775390625 + 0.013671875
		if v > 2 {
			v -= 3.5
		}
		xs[i] = v
	}
}

// hostTiers lists every dispatch tier this host can run, lowest first.
func hostTiers() []int32 {
	var ts []int32
	for lvl := tierGeneric; lvl <= bestTier; lvl++ {
		ts = append(ts, lvl)
	}
	return ts
}

// tierName labels a tier in subtest names and failure messages.
func tierName(lvl int32) string {
	return [...]string{"generic", "avx2", "avx512"}[lvl]
}

// TestTierOf pins the tier each kind of host gets. The AVX-512 tier needs
// F, DQ and VL; a host with AVX512F and VPOPCNTDQ but neither DQ nor VL
// (Knights Mill) runs the AVX2 tier here, while internal/bitpack runs its
// AVX-512 popcount tier on it.
func TestTierOf(t *testing.T) {
	for _, tc := range []struct {
		host string
		f    isa.Features
		want int32
	}{
		{"no SIMD", isa.Features{}, tierGeneric},
		{"AVX2 without FMA", isa.Features{AVX2: true}, tierGeneric},
		{"Haswell", isa.Features{AVX2: true, FMA: true}, tierAVX2},
		{"Knights Landing", isa.Features{AVX2: true, FMA: true, AVX512F: true}, tierAVX2},
		{"Knights Mill", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512VPOPCNTDQ: true}, tierAVX2},
		{"DQ without VL", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512DQ: true}, tierAVX2},
		{"Skylake-SP", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512DQ: true, AVX512VL: true}, tierAVX512},
		{"Ice Lake", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512DQ: true, AVX512VL: true, AVX512VPOPCNTDQ: true}, tierAVX512},
	} {
		if got := tierOf(tc.f); got != tc.want {
			t.Errorf("%s: tier %s, want %s", tc.host, tierName(got), tierName(tc.want))
		}
	}
}

// TestSIMDKernelsMatchGoLanes pins every micro-kernel, on every tier the
// host supports, to laneDot bitwise across aligned and ragged lengths,
// for sign-mixed inputs and for inputs whose every product is -0. On a
// host without SIMD only the Go lanes run and the test is trivially
// green; elsewhere it proves the assembly implements exactly the
// documented lane semantics. The 8×4 tile runs over packA's layout on
// the AVX-512 tier.
func TestSIMDKernelsMatchGoLanes(t *testing.T) {
	if bestTier == tierGeneric {
		t.Log("no SIMD tier: dispatcher always uses the Go lanes")
	}
	defer setTier(setTier(bestTier))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 31, 64, 127, 512, 1000, 1024} {
		for _, underflow := range []bool{false, true} {
			kernelsMatchLaneDot(t, n, underflow)
		}
	}
}

// kernelsMatchLaneDot runs TestSIMDKernelsMatchGoLanes for n columns.
func kernelsMatchLaneDot(t *testing.T, n int, underflow bool) {
	t.Helper()
	a := New(8, n)
	rows := New(4, n)
	fillPseudo(a.Data, 0.1)
	fillPseudo(rows.Data, 0.3)
	if underflow {
		// Every product -1e-200·1e-200 underflows to -0, so from n = 4 on
		// every lane and every lane dot is -0, unless a kernel's tail step
		// disturbs a closed lane (an FMA with zeros would make it +0).
		a.Fill(-1e-200)
		rows.Fill(1e-200)
	}
	a0, a1, a2, a3 := a.Row(0), a.Row(1), a.Row(2), a.Row(3)
	b0, b1, b2, b3 := rows.Row(0), rows.Row(1), rows.Row(2), rows.Row(3)

	// laneDot is the canonical definition every element must equal.
	var want [32]float64
	for r := 0; r < 8; r++ {
		for c := 0; c < 4; c++ {
			want[4*r+c] = laneDot(a.Row(r), rows.Row(c))
		}
	}
	if underflow && n >= 4 && math.Float64bits(want[0]) != 1<<63 {
		t.Fatalf("n=%d: laneDot of underflowing products is %g, want -0", n, want[0])
	}
	for _, lvl := range hostTiers() {
		setTier(lvl)
		name := fmt.Sprintf("%s n=%d underflow=%v", tierName(lvl), n, underflow)
		s0, s1, s2, s3 := DotBatch(a0, b0, b1, b2, b3)
		requireLanes(t, name+" DotBatch", []float64{s0, s1, s2, s3}, want[:4])
		var r [8]float64
		r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot2x4(a0, a1, b0, b1, b2, b3)
		requireLanes(t, name+" dot2x4", r[:], want[:8])
		var r16 [16]float64
		dot4x4(a0, a1, a2, a3, b0, b1, b2, b3, &r16)
		requireLanes(t, name+" dot4x4", r16[:], want[:16])
		if lvl == tierAVX512 {
			lease, pack := getPack(8 * (n + 3) &^ 3)
			packA(pack, a, 0, 8, 0, n)
			var r32 [32]float64
			dot8x4AVX512(&pack[0], &b0[0], &b1[0], &b2[0], &b3[0], n/4, n%4, &r32)
			putPack(lease)
			requireLanes(t, name+" dot8x4", r32[:], want[:])
		}
	}
}

// requireLanes fails unless got and want hold the same float64 bits.
func requireLanes(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s element %d: %g (%#x) != laneDot %g (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSIMDDispatchForcedOff computes full blocked products on every tier
// the host supports at GOMAXPROCS 1, 2 and 4, plain and fused, and
// requires every output bit to equal PanelDot's. Unpacked (B rows below
// packMinRows), the shapes mix 4×4, 2×4 and 1×4 row tiles, cover every
// q%4 tail with d%4 ≠ 0, straddle panels (q > kernelKC), and run merged
// ranges longer than the rangeRows cap. Packed (the 8×4 tile on the
// AVX-512 tier), they cover every rows%8 after whole groups (those rows
// take the smaller tiles), every q%4 and d%4, a panel narrower than one
// step, a panel straddle, a range past the cap, and a product too short
// to pack.
func TestSIMDDispatchForcedOff(t *testing.T) {
	defer setTier(setTier(bestTier))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ n, q, d int }{
		{7, 700, 9},    // one 4×4, one 2×4 and one 1×4 row tile
		{15, 561, 11},  // q%4 = 1
		{14, 562, 10},  // q%4 = 2
		{13, 563, 9},   // q%4 = 3
		{12, 564, 13},  // q%4 = 0
		{11, 2051, 6},  // three panels, the last 3 wide
		{9, 1030, 7},   // a 6-wide second panel
		{263, 1030, 5}, // four ranges of 64 rows and one of 7 at GOMAXPROCS 1
		{300, 561, 6},  // 112-row cap at q = 561
		{3, 3, 3},      // narrower than every tile
		{64, 1024, 12}, // the scoring shape: 12 classes, unpacked
		{20, 99, packMinRows - 1},
		{16, 64, packMinRows}, // packed from here on: rows%8 = 0, q%4 = 0
		{17, 61, 65},          // rows%8 = 1, q%4 = 1, d%4 = 1
		{18, 62, 66},          // rows%8 = 2, q%4 = 2, d%4 = 2
		{19, 63, 67},          // rows%8 = 3, q%4 = 3, d%4 = 3
		{20, 65, 68},          // rows%8 = 4
		{21, 66, 64},          // rows%8 = 5
		{22, 67, 64},          // rows%8 = 6
		{23, 561, 64},         // rows%8 = 7
		{13, 2, 64},           // a panel of 2 columns: the 8×4 tail alone
		{7, 561, 1024},        // under one group: no pack (a 7-row encode)
		{19, 2051, 66},        // three panels, the last 3 wide
		{300, 561, 64},        // 112-row cap at q = 561
		{64, 561, 1024},       // the served encode shape
	}
	post := func(i int, row []float64) {
		for j := range row {
			row[j] = row[j]*0.5 - float64(i)
		}
	}
	if 263 <= rangeRows(8*1024) || 300 <= rangeRows(8*561) {
		t.Fatal("the merged-range shapes no longer outgrow the rangeRows cap")
	}
	for _, sh := range shapes {
		a := New(sh.n, sh.q)
		b := New(sh.d, sh.q)
		fillPseudo(a.Data, 0.25)
		fillPseudo(b.Data, -0.5)
		want := New(sh.n, sh.d)
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.d; j++ {
				want.Row(i)[j] = PanelDot(a.Row(i), b.Row(j))
			}
		}
		wantFused := want.Clone()
		for i := 0; i < sh.n; i++ {
			post(i, wantFused.Row(i))
		}
		for _, lvl := range hostTiers() {
			for _, procs := range []int{1, 2, 4} {
				setTier(lvl)
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%dx%dx%d %s procs=%d", sh.n, sh.q, sh.d, tierName(lvl), procs)
				requireBits(t, name+" MulTInto", MulTInto(New(sh.n, sh.d), a, b), want)
				requireBits(t, name+" MulTIntoFused", MulTIntoFused(New(sh.n, sh.d), a, b, post), wantFused)
			}
		}
	}
}

// requireBits fails unless got and want hold the same float64 bits.
func requireBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %g, PanelDot %g",
				name, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// refActivate is the RBF activation as Go evaluates it: the definition
// ActivateRBF must reproduce bit for bit.
func refActivate(z, cosC, sinC float64) float64 {
	sz, cz := math.Sincos(z)
	return (cz*cosC - sz*sinC) * sz
}

// activationInputs returns n random z of both signs at magnitudes spread
// log-uniformly over 1e-300 … 1e9 (every other one over 1e-3 … 1e9, where
// encoder projections live and every polynomial term counts).
func activationInputs(n int, seed uint64) []float64 {
	r := rng.New(seed)
	zs := make([]float64, n)
	for i := range zs {
		lo := -300.0
		if i%2 == 1 {
			lo = -3
		}
		mag := math.Pow(10, r.Uniform(lo, 9))
		if r.Uniform(0, 1) < 0.5 {
			mag = -mag
		}
		zs[i] = mag
	}
	return zs
}

// goodEdges are inputs math.Sincos special-cases, or that sit just inside
// the kernel's |z| < 2^29 range; the kernel must compute all of them.
var goodEdges = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1050,
	math.Nextafter(1<<29, 0), -math.Nextafter(1<<29, 0),
	math.Pi / 4, 3 * math.Pi / 4, -math.Pi / 2, 1e-8, 7, 1e6,
}

// badEdges are inputs outside the kernel's range; a group holding one
// goes back to the caller.
var badEdges = []float64{1 << 29, -(1 << 29), 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}

// TestActivateRBFMatchesSincos compares the vector epilogue with the Go
// definition on every tier the host supports: each element it computes
// must carry the same bits, and it must stop exactly before the first
// group holding an element outside |z| < 2^29 and before a short tail.
// It is driven as RBF.nonlinearRow drives it: after each stop the caller
// computes one group in Go (here: skips it) and calls the kernel again.
func TestActivateRBFMatchesSincos(t *testing.T) {
	defer setTier(setTier(bestTier))
	phase := rng.New(5)
	for _, n := range []int{1, 7, 8, 9, 63, 64, 1000, 1027, 4099} {
		z := activationInputs(n, uint64(n))
		cosC := make([]float64, n)
		sinC := make([]float64, n)
		for i := range cosC {
			sinC[i], cosC[i] = math.Sincos(phase.Uniform(0, 2*math.Pi))
		}
		inputs := [][]float64{z}
		// Every good edge lands in its own group, at a shifting lane.
		edged := append([]float64(nil), z...)
		for k, e := range goodEdges {
			if i := 8*k + k%8; i < n {
				edged[i] = e
			}
		}
		inputs = append(inputs, edged)
		// Each bad edge stops the kernel at the third group.
		for k, e := range badEdges {
			if i := 16 + (3+k)%8; i < n {
				bad := append([]float64(nil), edged...)
				bad[i] = e
				inputs = append(inputs, bad)
			}
		}
		for _, in := range inputs {
			for _, lvl := range hostTiers() {
				setTier(lvl)
				got := append([]float64(nil), in...)
				computed := 0
				want := append([]float64(nil), in...)
				for d := 0; d < n; d += ActivationLanes {
					done := ActivateRBF(got[d:], cosC[d:], sinC[d:])
					wantDone := 0
					if lvl == tierAVX512 {
						for e := d; e+ActivationLanes <= n && inRange(in[e:e+ActivationLanes]); e += ActivationLanes {
							wantDone += ActivationLanes
						}
					}
					if done != wantDone {
						t.Fatalf("%s n=%d from %d: computed %d elements, want %d", tierName(lvl), n, d, done, wantDone)
					}
					for i := d; i < d+done; i++ {
						want[i] = refActivate(in[i], cosC[i], sinC[i])
					}
					computed += done
					d += done
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d z[%d]=%v: got %v (%#x), want %v (%#x)", tierName(lvl), n, i,
							in[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
				if lvl == tierAVX512 && n >= 1000 && computed < n/2 {
					t.Fatalf("n=%d: the kernel computed only %d elements", n, computed)
				}
			}
		}
	}
}

// inRange reports whether every element of g is below 2^29 in magnitude.
func inRange(g []float64) bool {
	for _, v := range g {
		if !(math.Abs(v) < 1<<29) {
			return false
		}
	}
	return true
}
