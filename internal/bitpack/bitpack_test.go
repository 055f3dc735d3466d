package bitpack

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Vector is a packed bipolar hypervector: bit i set means dimension i is
// +1, clear means −1. Dim is the logical dimensionality; trailing bits of
// the last word are kept zero. Scoring runs on Matrix (batch.go); Vector
// with HammingDistance and Agreement is the plain one-vector reference
// the Matrix kernels are checked against in tests.
type Vector struct {
	Dim   int
	Words []uint64
}

// NewVector returns an all-(-1) packed vector of the given dimensionality.
func NewVector(dim int) *Vector {
	if dim <= 0 {
		panic(fmt.Sprintf("bitpack: non-positive dimension %d", dim))
	}
	return &Vector{Dim: dim, Words: make([]uint64, (dim+63)/64)}
}

// FromFloats packs the signs of a float hypervector (zero counts +1,
// matching the repo-wide sign convention).
func FromFloats(h []float64) *Vector {
	v := NewVector(len(h))
	for i, x := range h {
		if x >= 0 {
			v.Words[i/64] |= 1 << uint(i%64)
		}
	}
	return v
}

// ToFloats unpacks to ±1 float values.
func (v *Vector) ToFloats() []float64 {
	out := make([]float64, v.Dim)
	for i := range out {
		if v.Bit(i) {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// Bit reports whether dimension i is +1.
func (v *Vector) Bit(i int) bool {
	return v.Words[i/64]&(1<<uint(i%64)) != 0
}

// SetBit assigns dimension i (+1 when set).
func (v *Vector) SetBit(i int, set bool) {
	if set {
		v.Words[i/64] |= 1 << uint(i%64)
	} else {
		v.Words[i/64] &^= 1 << uint(i%64)
	}
}

// HammingDistance counts dimensions where a and b disagree.
func HammingDistance(a, b *Vector) int {
	if a.Dim != b.Dim {
		panic(fmt.Sprintf("bitpack: dimension mismatch %d vs %d", a.Dim, b.Dim))
	}
	d := 0
	for i := range a.Words {
		d += bits.OnesCount64(a.Words[i] ^ b.Words[i])
	}
	return d
}

// Agreement returns Dim − 2·HammingDistance, i.e. the dot product of the
// two bipolar vectors — the quantity HDC classification maximizes.
func Agreement(a, b *Vector) int {
	return a.Dim - 2*HammingDistance(a, b)
}

// bipolar draws a random ±1 hypervector of dimension d.
func bipolar(d int, r *rng.Rand) []float64 {
	h := make([]float64, d)
	for i := range h {
		h[i] = r.Bipolar()
	}
	return h
}

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
		fa := bipolar(dim, r)
		fb := bipolar(dim, r)
		want := int(mat.Dot(fa, fb))
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
