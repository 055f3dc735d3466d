package encoding

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

func randomInput(q int, seed uint64) []float64 {
	x := make([]float64, q)
	rng.New(seed).FillNorm(x, 0, 1)
	return x
}

func TestRBFShape(t *testing.T) {
	e := NewRBF(10, 256, 1)
	if e.Dim() != 256 || e.Features() != 10 {
		t.Fatalf("Dim=%d Features=%d", e.Dim(), e.Features())
	}
}

func TestRBFOutputRange(t *testing.T) {
	e := NewRBF(8, 512, 2)
	dst := make([]float64, 512)
	e.Encode(randomInput(8, 3), dst)
	for _, v := range dst {
		// cos(·)·sin(·) is bounded by 1 in magnitude (actually by 1/2 for
		// equal arguments, but phases differ, so just assert the hard bound).
		if math.Abs(v) > 1 {
			t.Fatalf("RBF output %v outside [-1,1]", v)
		}
	}
}

func TestRBFDeterministic(t *testing.T) {
	x := randomInput(8, 4)
	a := make([]float64, 128)
	b := make([]float64, 128)
	NewRBF(8, 128, 7).Encode(x, a)
	NewRBF(8, 128, 7).Encode(x, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed RBF encoders differ")
		}
	}
}

func TestRBFSeedsDiffer(t *testing.T) {
	x := randomInput(8, 4)
	a := make([]float64, 128)
	b := make([]float64, 128)
	NewRBF(8, 128, 1).Encode(x, a)
	NewRBF(8, 128, 2).Encode(x, b)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different-seed RBF encoders identical")
	}
}

// Similar inputs must encode to similar hypervectors and dissimilar inputs
// to dissimilar ones (the kernel property that makes RBF encoding useful).
func TestRBFLocality(t *testing.T) {
	e := NewRBF(16, 2048, 5)
	x := randomInput(16, 6)
	near := make([]float64, 16)
	copy(near, x)
	for i := range near {
		near[i] += 0.01
	}
	far := randomInput(16, 99)

	hx := make([]float64, e.Dim())
	hn := make([]float64, e.Dim())
	hf := make([]float64, e.Dim())
	e.Encode(x, hx)
	e.Encode(near, hn)
	e.Encode(far, hf)

	simNear := mat.CosineSim(hx, hn)
	simFar := mat.CosineSim(hx, hf)
	if simNear < 0.9 {
		t.Fatalf("nearby inputs encode too differently: cos=%v", simNear)
	}
	if simFar > simNear-0.2 {
		t.Fatalf("far input not separated: near=%v far=%v", simNear, simFar)
	}
}

func TestRBFEncodeBatchMatchesSingle(t *testing.T) {
	e := NewRBF(6, 64, 8)
	X := mat.New(5, 6)
	rng.New(9).FillNorm(X.Data, 0, 1)
	batch := e.EncodeBatch(X)
	single := make([]float64, 64)
	for i := 0; i < 5; i++ {
		e.Encode(X.Row(i), single)
		for j := range single {
			if batch.At(i, j) != single[j] {
				t.Fatalf("batch row %d differs from single encode", i)
			}
		}
	}
}

func TestRBFRegenerateChangesOnlyListedDims(t *testing.T) {
	e := NewRBF(6, 64, 10)
	x := randomInput(6, 11)
	before := make([]float64, 64)
	e.Encode(x, before)

	dims := []int{3, 17, 40}
	e.Regenerate(dims)
	after := make([]float64, 64)
	e.Encode(x, after)

	changed := map[int]bool{}
	for _, d := range dims {
		changed[d] = true
	}
	for i := range after {
		if changed[i] {
			if after[i] == before[i] {
				t.Fatalf("dim %d should have changed after regeneration", i)
			}
		} else if after[i] != before[i] {
			t.Fatalf("dim %d changed but was not regenerated", i)
		}
	}
}

func TestRBFRegenerateOutOfRangePanics(t *testing.T) {
	e := NewRBF(4, 16, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Regenerate did not panic")
		}
	}()
	e.Regenerate([]int{16})
}

func TestRBFRegenerateAdvancesStream(t *testing.T) {
	// Regenerating the same dim twice must give different bases both times.
	e := NewRBF(4, 16, 2)
	first := make([]float64, 4)
	copy(first, e.base.Row(5))
	e.Regenerate([]int{5})
	second := make([]float64, 4)
	copy(second, e.base.Row(5))
	e.Regenerate([]int{5})
	third := e.base.Row(5)
	same12, same23 := true, true
	for i := range first {
		if first[i] != second[i] {
			same12 = false
		}
		if second[i] != third[i] {
			same23 = false
		}
	}
	if same12 || same23 {
		t.Fatal("regeneration did not redraw the base vector")
	}
}

func TestLinearBipolarOutput(t *testing.T) {
	e := NewLinear(8, 128, true, 3)
	dst := make([]float64, 128)
	e.Encode(randomInput(8, 4), dst)
	for _, v := range dst {
		if v != 1 && v != -1 {
			t.Fatalf("bipolar Linear emitted %v", v)
		}
	}
}

func TestLinearRealOutput(t *testing.T) {
	e := NewLinear(8, 128, false, 3)
	dst := make([]float64, 128)
	e.Encode(randomInput(8, 4), dst)
	nonBipolar := false
	for _, v := range dst {
		if v != 1 && v != -1 {
			nonBipolar = true
		}
	}
	if !nonBipolar {
		t.Fatal("real-valued Linear produced only ±1, suspicious")
	}
}

func TestLinearRegenerate(t *testing.T) {
	e := NewLinear(8, 64, false, 5)
	x := randomInput(8, 6)
	before := make([]float64, 64)
	e.Encode(x, before)
	e.Regenerate([]int{0, 63})
	after := make([]float64, 64)
	e.Encode(x, after)
	if after[0] == before[0] || after[63] == before[63] {
		t.Fatal("regenerated dims unchanged")
	}
	for i := 1; i < 63; i++ {
		if after[i] != before[i] {
			t.Fatalf("untouched dim %d changed", i)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewRBF(0, 10, 1) },
		func() { NewRBF(10, 0, 1) },
		func() { NewLinear(0, 10, false, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: invalid constructor did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEncodeBatchWrongWidthPanics(t *testing.T) {
	e := NewRBF(4, 16, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width batch did not panic")
		}
	}()
	e.EncodeBatch(mat.New(2, 5))
}

// Property: regeneration leaves all non-listed dimensions bit-identical,
// for arbitrary seeds and dim choices.
func TestRegenerationIsolationProperty(t *testing.T) {
	f := func(seed uint64, rawDim uint8) bool {
		const D = 32
		d := int(rawDim) % D
		e := NewRBF(4, D, seed)
		x := randomInput(4, seed^0xabc)
		before := make([]float64, D)
		e.Encode(x, before)
		e.Regenerate([]int{d})
		after := make([]float64, D)
		e.Encode(x, after)
		for i := range after {
			if i != d && after[i] != before[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRBFEncode784x2048(b *testing.B) {
	e := NewRBF(784, 2048, 1)
	x := randomInput(784, 2)
	dst := make([]float64, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(x, dst)
	}
}

func TestRBFParamsRoundTrip(t *testing.T) {
	e := NewRBF(6, 32, 44)
	x := randomInput(6, 45)
	want := make([]float64, 32)
	e.Encode(x, want)

	base, phase, sigma := e.Params()
	re, err := NewRBFFromParams(base, phase, sigma, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 32)
	re.Encode(x, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("reconstructed encoder differs from original")
		}
	}
	// Reconstructed encoder must be independent of the original's storage.
	re.Regenerate([]int{0})
	orig := make([]float64, 32)
	e.Encode(x, orig)
	if orig[0] != want[0] {
		t.Fatal("NewRBFFromParams aliased the original base matrix")
	}
}

func TestNewRBFFromParamsValidation(t *testing.T) {
	e := NewRBF(4, 8, 1)
	base, phase, _ := e.Params()
	if _, err := NewRBFFromParams(base, phase, 0, 1); err == nil {
		t.Fatal("zero sigma accepted")
	}
	if _, err := NewRBFFromParams(base, phase[:4], 0.5, 1); err == nil {
		t.Fatal("phase length mismatch accepted")
	}
	if _, err := NewRBFFromParams(nil, phase, 0.5, 1); err == nil {
		t.Fatal("nil base accepted")
	}
}

// dimsEncoder is a Regenerable with the one-sample EncodeDims reference
// the batched column patch is checked against.
type dimsEncoder interface {
	Regenerable
	EncodeDims(x []float64, dims []int, dst []float64)
}

// EncodeDims computes only the listed output dimensions of x. PanelDot
// reproduces the blocked kernel's accumulation order, so values match
// Encode bitwise.
func (e *RBF) EncodeDims(x []float64, dims []int, dst []float64) {
	if len(x) != e.Features() || len(dst) != len(dims) {
		panic("encoding: RBF.EncodeDims size mismatch")
	}
	for j, d := range dims {
		dst[j] = e.activate(d, mat.PanelDot(e.base.Row(d), x))
	}
}

// EncodeDims computes only the listed output dimensions of x, bitwise
// consistent with Encode (see RBF.EncodeDims).
func (e *Linear) EncodeDims(x []float64, dims []int, dst []float64) {
	if len(x) != e.Features() || len(dst) != len(dims) {
		panic("encoding: Linear.EncodeDims size mismatch")
	}
	for j, d := range dims {
		v := mat.PanelDot(e.base.Row(d), x)
		if e.bipolar {
			if v < 0 {
				v = -1
			} else {
				v = 1
			}
		}
		dst[j] = v
	}
}

func TestEncodeDimsMatchesEncode(t *testing.T) {
	for _, mk := range []func() dimsEncoder{
		func() dimsEncoder { return NewRBF(5, 24, 3) },
		func() dimsEncoder { return NewLinear(5, 24, true, 3) },
		func() dimsEncoder { return NewLinear(5, 24, false, 3) },
	} {
		e := mk()
		x := randomInput(5, 9)
		full := make([]float64, 24)
		e.Encode(x, full)
		dims := []int{0, 7, 23, 11}
		part := make([]float64, len(dims))
		e.EncodeDims(x, dims, part)
		for j, d := range dims {
			if part[j] != full[d] {
				t.Fatalf("EncodeDims[%d] = %v, Encode[%d] = %v", j, part[j], d, full[d])
			}
		}
	}
}

func TestEncodeDimsSizeMismatchPanics(t *testing.T) {
	e := NewRBF(4, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeDims size mismatch did not panic")
		}
	}()
	e.EncodeDims(make([]float64, 4), []int{1, 2}, make([]float64, 3))
}

func TestEncodeSizeMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { NewRBF(4, 8, 1).Encode(make([]float64, 3), make([]float64, 8)) },
		func() { NewLinear(4, 8, false, 1).Encode(make([]float64, 4), make([]float64, 7)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: size mismatch did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestEncodeDimsBatchMatchesEncodeDims pins the batched column-patching
// path to the per-sample EncodeDims reference bitwise, for both regenerable
// encoder families and across a regeneration.
func TestEncodeDimsBatchMatchesEncodeDims(t *testing.T) {
	for _, mk := range []func() dimsEncoder{
		func() dimsEncoder { return NewRBF(7, 40, 3) },
		func() dimsEncoder { return NewLinear(7, 40, true, 3) },
		func() dimsEncoder { return NewLinear(7, 40, false, 3) },
	} {
		e := mk()
		X := mat.New(9, 7)
		rng.New(21).FillNorm(X.Data, 0, 1)
		H := e.EncodeBatch(X)
		dims := []int{0, 5, 39, 17, 8}
		e.Regenerate(dims)
		e.EncodeDimsBatch(X, dims, H)

		buf := make([]float64, len(dims))
		full := make([]float64, e.Dim())
		for i := 0; i < X.Rows; i++ {
			e.EncodeDims(X.Row(i), dims, buf)
			for j, d := range dims {
				if H.At(i, d) != buf[j] {
					t.Fatalf("row %d dim %d: batch %v != single %v", i, d, H.At(i, d), buf[j])
				}
			}
			// Untouched columns must be exactly the original batch encode,
			// and touched columns must equal a fresh full encode.
			e.Encode(X.Row(i), full)
			for _, d := range dims {
				if H.At(i, d) != full[d] {
					t.Fatalf("row %d dim %d: patched %v != full re-encode %v", i, d, H.At(i, d), full[d])
				}
			}
		}
	}
}

// TestEncodeDimsBatchEmptyDims checks the no-op path.
func TestEncodeDimsBatchEmptyDims(t *testing.T) {
	e := NewRBF(4, 16, 1)
	X := mat.New(3, 4)
	rng.New(2).FillNorm(X.Data, 0, 1)
	H := e.EncodeBatch(X)
	before := H.Clone()
	e.EncodeDimsBatch(X, nil, H)
	for i, v := range H.Data {
		if v != before.Data[i] {
			t.Fatal("EncodeDimsBatch with no dims modified H")
		}
	}
}

// TestNonlinearRowMatchesActivate pins the batch epilogue, which runs the
// vector kernel mat.ActivateRBF on the AVX-512 tier, to activate and to
// math.Sincos bit for bit: random projections of both signs at magnitudes
// 1e-300 … 1e9, then ±0, subnormals, ±(2^29 − ulp), ±2^29, NaN and ±Inf,
// over widths whose last 8-lane group is partial.
func TestNonlinearRowMatchesActivate(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040,
		math.Nextafter(1<<29, 0), -math.Nextafter(1<<29, 0), 1 << 29, -(1 << 29),
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, d := range []int{5, 67, 1027} {
		e := NewRBF(3, d, uint64(d))
		r := rng.New(uint64(d) + 1)
		for trial := 0; trial < 20; trial++ {
			z := make([]float64, d)
			for i := range z {
				lo := -300.0
				if i%2 == 1 {
					lo = -3
				}
				z[i] = math.Copysign(math.Pow(10, r.Uniform(lo, 9)), r.Uniform(-1, 1))
			}
			// Later trials plant the edge cases, one per group.
			for k := 0; k < trial && k < len(edges); k++ {
				if i := 8*k + trial%8; i < d {
					z[i] = edges[k]
				}
			}
			row := append([]float64(nil), z...)
			e.nonlinearRow(row)
			for i, v := range z {
				sz, cz := math.Sincos(v)
				sc, cc := math.Sincos(e.phase[i])
				for _, want := range []float64{e.activate(i, v), (cz*cc - sz*sc) * sz} {
					if math.Float64bits(row[i]) != math.Float64bits(want) {
						t.Fatalf("D=%d trial %d z[%d]=%v: batch epilogue %v (%#x), want %v (%#x)",
							d, trial, i, v, row[i], math.Float64bits(row[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}
