package encoding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitpack"
	"repro/internal/mat"
)

// signGuard is the |activation| band inside which the analytic sign rule
// and the float cos·sin evaluation may legitimately disagree (both are
// correct to their rounding; the true sign is numerically undecided
// there). The packed path projects in float32, so the band covers the
// single-precision GEMM error, not just double rounding.
const signGuard = 1e-4

// TestPackedEncodeMatchesFloatSigns checks that the packed batch encode
// produces exactly the sign bits of the f32 activations, outside the
// numerically undecided band, and that all-zero inputs pack as +1 like
// the float path's ±0 ≥ 0 — before and after regeneration, which must
// refresh the encoder's f32 base and fractional-phase cache.
func TestPackedEncodeMatchesFloatSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ q, d int }{{7, 63}, {16, 256}, {54, 2048}} {
		e := NewRBF(shape.q, shape.d, 11)
		p, err := NewPackedRBF(e)
		if err != nil {
			t.Fatalf("NewPackedRBF: %v", err)
		}
		check := func(stage string) {
			t.Helper()
			const n = 9
			X := mat.New(n, shape.q)
			for i := range X.Data {
				X.Data[i] = rng.NormFloat64()
			}
			copy(X.Row(n-1), make([]float64, shape.q)) // all-zero row

			H := e.EncodeBatch(X)
			X32 := mat.NewDense32(n, shape.q)
			X32.SetFrom(X)
			z := mat.NewDense32(n, shape.d)
			packed := bitpack.NewMatrix(n, shape.d)
			p.EncodeBatchPackedInto(X32, z, packed)

			for i := 0; i < n; i++ {
				for d := 0; d < shape.d; d++ {
					act := H.Row(i)[d]
					if math.Abs(act) < signGuard {
						continue
					}
					if got, want := packed.Bit(i, d), act >= 0; got != want {
						t.Fatalf("%s q=%d d=%d: row %d dim %d packed %v, f32 activation %v",
							stage, shape.q, shape.d, i, d, got, act)
					}
				}
			}
			// The all-zero row projects to z == 0 everywhere: every activation
			// is ±0, which the float path packs as +1. The packed path must too.
			for d := 0; d < shape.d; d++ {
				if !packed.Bit(n-1, d) {
					t.Fatalf("%s q=%d d=%d: zero row packed dim %d as −1, want +1", stage, shape.q, shape.d, d)
				}
			}
		}
		check("fresh")
		e.Regenerate([]int{0, 7, shape.d - 1})
		check("regenerated")
	}
}

// TestPackedEncodeSingleMatchesBatch checks that a sample encoded alone,
// as a one-row batch (how single-row quantized queries run), packs the
// same bits as the same sample inside a multi-row batch, including after
// regeneration: the GEMM's row tiling differs between the two, the
// signs must not.
func TestPackedEncodeSingleMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewRBF(12, 130, 5)
	p, err := NewPackedRBF(e)
	if err != nil {
		t.Fatalf("NewPackedRBF: %v", err)
	}
	check := func() {
		t.Helper()
		const n = 5
		X := mat.New(n, 12)
		for i := range X.Data {
			X.Data[i] = rng.NormFloat64()
		}
		X32 := mat.NewDense32(n, 12)
		X32.SetFrom(X)
		z := mat.NewDense32(n, 130)
		batch := bitpack.NewMatrix(n, 130)
		p.EncodeBatchPackedInto(X32, z, batch)
		x1 := mat.NewDense32(1, 12)
		z1 := mat.NewDense32(1, 130)
		single := bitpack.NewMatrix(1, 130)
		for i := 0; i < n; i++ {
			x1.SetRow(0, X.Row(i))
			p.EncodeBatchPackedInto(x1, z1, single)
			for j, w := range batch.Row(i) {
				if got := single.Row(0)[j]; got != w {
					t.Fatalf("row %d word %d: single %#x, batch %#x", i, j, got, w)
				}
			}
		}
	}
	check()
	e.Regenerate([]int{0, 7, 129})
	check()
}

// TestNewPackedRBFRejectsNonRBF pins the fallback contract for encoder
// families without a packed sign rule.
func TestNewPackedRBFRejectsNonRBF(t *testing.T) {
	if _, err := NewPackedRBF(NewLinear(4, 32, true, 1)); err == nil {
		t.Fatal("NewPackedRBF accepted a Linear encoder")
	}
}
