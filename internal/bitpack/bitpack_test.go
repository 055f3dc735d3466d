package bitpack

import (
	"testing"
	"testing/quick"

	"repro/internal/hv"
	"repro/internal/rng"
)

func TestFromToFloatsRoundTrip(t *testing.T) {
	h := []float64{1, -1, -1, 1, 1, -1, 0.5, -0.5, 0}
	v := FromFloats(h)
	back := v.ToFloats()
	want := []float64{1, -1, -1, 1, 1, -1, 1, -1, 1} // signs, zero → +1
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("round trip[%d] = %v, want %v", i, back[i], want[i])
		}
	}
}

func TestBitSetBit(t *testing.T) {
	v := NewVector(130) // crosses word boundaries
	v.SetBit(0, true)
	v.SetBit(64, true)
	v.SetBit(129, true)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if v.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, v.Bit(i), want)
		}
	}
	v.SetBit(64, false)
	if v.Bit(64) {
		t.Fatal("SetBit(false) did not clear")
	}
}

func TestHammingAndAgreement(t *testing.T) {
	a := FromFloats([]float64{1, 1, -1, -1})
	b := FromFloats([]float64{1, -1, -1, 1})
	if d := HammingDistance(a, b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	// agreement = dim - 2*hamming = 0; matches bipolar dot product
	if ag := Agreement(a, b); ag != 0 {
		t.Fatalf("Agreement = %d, want 0", ag)
	}
	if ag := Agreement(a, a); ag != 4 {
		t.Fatalf("self Agreement = %d, want 4", ag)
	}
}

func TestHammingMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	HammingDistance(NewVector(4), NewVector(5))
}

// Packed agreement must equal the float dot product of the sign vectors,
// for arbitrary vectors and dimensions (including non-multiples of 64).
func TestAgreementMatchesFloatDot(t *testing.T) {
	f := func(seed uint64, rawDim uint16) bool {
		dim := int(rawDim%300) + 1
		r := rng.New(seed)
		fa := hv.RandomBipolar(dim, r)
		fb := hv.RandomBipolar(dim, r)
		want := int(hv.Dot(fa, fb))
		got := Agreement(FromFloats(fa), FromFloats(fb))
		return got == want
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNewVectorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero dimension accepted")
		}
	}()
	NewVector(0)
}

func BenchmarkPackedAgreement4096(b *testing.B) {
	r := rng.New(3)
	x := FromFloats(hv.RandomBipolar(4096, r))
	y := FromFloats(hv.RandomBipolar(4096, r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Agreement(x, y)
	}
}

func BenchmarkFloatDot4096(b *testing.B) {
	r := rng.New(3)
	x := hv.RandomBipolar(4096, r)
	y := hv.RandomBipolar(4096, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hv.Dot(x, y)
	}
}
