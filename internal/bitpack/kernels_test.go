package bitpack

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// PackActivationSigns is PackActivationSigns32 for a float64 projection
// row. It runs the pure-Go kernel on every host: it is the float64
// reference that PackActivationSigns32, the serving path, is checked
// against.
func PackActivationSigns(z, fracPhase []float64, dst []uint64) {
	dim := len(z)
	if len(fracPhase) != dim {
		panic(fmt.Sprintf("bitpack: fracPhase length %d for dimension %d", len(fracPhase), dim))
	}
	used := (dim + 63) / 64
	if len(dst) < used {
		panic(fmt.Sprintf("bitpack: PackActivationSigns dst %d words, need %d", len(dst), used))
	}
	groups := dim / 64
	packSignWordsGo(z[:groups*64], fracPhase[:groups*64], dst[:groups])
	if tail := dim - groups*64; tail > 0 {
		dst[groups] = packSignTailBits(z[groups*64:], fracPhase[groups*64:])
	}
	for j := used; j < len(dst); j++ {
		dst[j] = 0
	}
}

// parityDims covers the interesting word-boundary shapes: sub-word,
// word-1, exact word, word+1, one kernel stride, the serving default,
// and a large non-round dimension with a padded tail.
var parityDims = []int{1, 63, 64, 65, 1024, 2048, 10000}

// availableISAs lists every dispatch tier this host can actually
// execute, lowest first.
func availableISAs() []int32 {
	isas := []int32{isaGeneric}
	if bestISA >= isaAVX2 {
		isas = append(isas, isaAVX2)
	}
	if bestISA >= isaAVX512 {
		isas = append(isas, isaAVX512)
	}
	return isas
}

func isaName(l int32) string {
	switch l {
	case isaAVX512:
		return "avx512"
	case isaAVX2:
		return "avx2"
	default:
		return "generic"
	}
}

// TestTierOf pins the tier each kind of host gets. The AVX-512 kernels
// need AVX512F and VPOPCNTDQ but neither AVX512DQ nor AVX512VL: their
// 256- and 128-bit reduction steps (HSUMQ) use VEX encodings, so a host
// without DQ and VL (Knights Mill) runs them, while internal/mat gives it
// its AVX2 tier.
func TestTierOf(t *testing.T) {
	for _, tc := range []struct {
		host string
		f    isa.Features
		want int32
	}{
		{"no SIMD", isa.Features{}, isaGeneric},
		{"AVX2", isa.Features{AVX2: true}, isaAVX2},
		{"Haswell", isa.Features{AVX2: true, FMA: true}, isaAVX2},
		{"VPOPCNTDQ without AVX512F", isa.Features{AVX2: true, FMA: true, AVX512VPOPCNTDQ: true}, isaAVX2},
		{"Skylake-SP", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512DQ: true, AVX512VL: true}, isaAVX2},
		{"Knights Mill", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512VPOPCNTDQ: true}, isaAVX512},
		{"Ice Lake", isa.Features{AVX2: true, FMA: true, AVX512F: true, AVX512DQ: true, AVX512VL: true, AVX512VPOPCNTDQ: true}, isaAVX512},
	} {
		if got := tierOf(tc.f); got != tc.want {
			t.Errorf("%s: tier %s, want %s", tc.host, isaName(got), isaName(tc.want))
		}
	}
}

// randomSigns fills a float row with a mix of magnitudes, exact zeros,
// negative zeros and large values so the sign predicates see every edge.
func randomSigns(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(12) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = (rng.Float64() - 0.5) * 1e6
		case 3:
			x[i] = (rng.Float64() - 0.5) * 1e-6
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestScoreKernelParityAcrossISAs checks that every ISA tier returns the
// exact agreements the generic kernels define, for every boundary
// dimension, against the seed Vector implementation as ground truth.
func TestScoreKernelParityAcrossISAs(t *testing.T) {
	defer setISA(setISA(bestISA))
	rng := rand.New(rand.NewSource(42))
	const classesN, queriesN = 7, 5 // 7 classes: one 1×4 tile plus a 3-class remainder
	for _, dim := range parityDims {
		classes := NewMatrix(classesN, dim)
		queries := NewMatrix(queriesN, dim)
		classRows := make([][]float64, classesN)
		queryRows := make([][]float64, queriesN)
		for c := range classRows {
			classRows[c] = randomSigns(rng, dim)
			classes.PackRow(c, classRows[c])
		}
		for q := range queryRows {
			queryRows[q] = randomSigns(rng, dim)
			queries.PackRow(q, queryRows[q])
		}

		// Ground truth from the scalar seed implementation.
		want := make([]int32, queriesN*classesN)
		for q := range queryRows {
			qv := FromFloats(queryRows[q])
			for c := range classRows {
				want[q*classesN+c] = int32(Agreement(FromFloats(classRows[c]), qv))
			}
		}

		for _, isa := range availableISAs() {
			setISA(isa)
			got := make([]int32, len(want))
			ScoreBatchInto(classes, queries, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim %d isa %s: score[%d] = %d, want %d",
						dim, isaName(isa), i, got[i], want[i])
				}
			}
			// The raw kernels on padded rows must agree too.
			var h4 [4]int64
			xorPopcnt4(queries.Row(0), classes.Row(0), classes.Row(1), classes.Row(2), classes.Row(3), &h4)
			for c := 0; c < 4; c++ {
				if want := xorPopcntGo(queries.Row(0), classes.Row(c)); h4[c] != want {
					t.Fatalf("dim %d isa %s: xorPopcnt4[%d] = %d, want %d",
						dim, isaName(isa), c, h4[c], want)
				}
			}
			if got, want := xorPopcnt(queries.Row(1), classes.Row(5)), xorPopcntGo(queries.Row(1), classes.Row(5)); got != want {
				t.Fatalf("dim %d isa %s: xorPopcnt = %d, want %d", dim, isaName(isa), got, want)
			}
		}
	}
}

// TestPackSignParityAcrossISAs checks that every tier of the float32
// sign pack (the AVX-512 kernel widens in registers, the others through a
// buffer) reproduces the Go analytic rule of the float64 reference on the
// exactly widened row, bit for bit, on every boundary dimension: ±0, NaN,
// ±Inf and huge angles included, into reused (dirty) destination rows.
func TestPackSignParityAcrossISAs(t *testing.T) {
	defer setISA(setISA(bestISA))
	rng := rand.New(rand.NewSource(7))
	for _, dim := range parityDims {
		z := make([]float32, dim)
		wide := make([]float64, dim)
		fc := make([]float64, dim)
		for i := range z {
			switch rng.Intn(10) {
			case 0:
				z[i] = 0
			case 1:
				z[i] = float32(math.Copysign(0, -1))
			case 2:
				z[i] = float32((rng.Float64() - 0.5) * 1e9) // huge angles
			case 3:
				z[i] = float32(math.Inf(1))
			case 4:
				z[i] = float32(math.NaN())
			case 5:
				z[i] = float32(math.Inf(-1))
			default:
				z[i] = float32(rng.NormFloat64() * 10)
			}
			wide[i] = float64(z[i])
			fc[i] = FracTurns(rng.Float64() * 2 * math.Pi)
		}
		stride := matrixStride(dim)
		dirty := func() []uint64 {
			w := make([]uint64, stride)
			for j := range w {
				w[j] = ^uint64(0) // pack must clear pads and tails
			}
			return w
		}
		want := dirty()
		PackActivationSigns(wide, fc, want)
		for _, isa := range availableISAs() {
			setISA(isa)
			got := dirty()
			PackActivationSigns32(z, fc, got)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("dim %d isa %s: pack word %d = %#x, want %#x",
						dim, isaName(isa), j, got[j], want[j])
				}
			}
		}
	}
}

// TestKernelParityQuick drives the popcount and sign-pack tiers with
// testing/quick-generated inputs at a fixed kernel-stride length.
func TestKernelParityQuick(t *testing.T) {
	defer setISA(setISA(bestISA))
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(99))}

	popcount := func(q, c [8]uint64) bool {
		want := xorPopcntGo(q[:], c[:])
		for _, isa := range availableISAs() {
			setISA(isa)
			if xorPopcnt(q[:], c[:]) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(popcount, cfg); err != nil {
		t.Fatalf("popcount parity: %v", err)
	}

	pack := func(raw [64]float32, phases [64]float64) bool {
		wide := make([]float64, 64)
		fc := make([]float64, 64)
		for i, p := range phases {
			wide[i] = float64(raw[i])
			fc[i] = FracTurns(p)
		}
		want := make([]uint64, 1)
		packSignWordsGo(wide, fc, want)
		for _, isa := range availableISAs() {
			setISA(isa)
			got := make([]uint64, 1)
			packSignWords32(raw[:], fc, got)
			if got[0] != want[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(pack, cfg); err != nil {
		t.Fatalf("sign-pack parity: %v", err)
	}
}

// TestKernelParityAcrossGOMAXPROCS reruns the score parity suite at
// several GOMAXPROCS settings: the kernels hold no shared state beyond
// the atomic dispatch tier, so parallelism must not change results.
func TestKernelParityAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			TestScoreKernelParityAcrossISAs(t)
			TestPackSignParityAcrossISAs(t)
		})
	}
}

// TestPredictBatchIntoTieRule pins the first-wins argmax tie rule to the
// float path's mat.ArgMax semantics.
func TestPredictBatchIntoTieRule(t *testing.T) {
	dim := 64
	classes := NewMatrix(3, dim)
	queries := NewMatrix(1, dim)
	row := make([]float64, dim)
	for i := range row {
		row[i] = 1
	}
	classes.PackRow(0, row)
	classes.PackRow(1, row) // identical to class 0: tie
	for i := range row {
		row[i] = -1
	}
	classes.PackRow(2, row)
	queries.PackRow(0, make([]float64, dim)) // all zeros pack as +1
	scores := make([]int32, 3)
	out := make([]int, 1)
	PredictBatchInto(classes, queries, scores, out)
	if out[0] != 0 {
		t.Fatalf("tie broke to class %d, want first-wins 0", out[0])
	}
	if scores[0] != scores[1] || scores[0] != int32(dim) {
		t.Fatalf("tie scores %v, want [%d %d ...]", scores, dim, dim)
	}
}
