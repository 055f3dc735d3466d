// Package bitpack implements deployment-grade bipolar hypervector
// inference: hypervectors packed one bit per dimension into uint64 words,
// with Hamming similarity computed by XOR + popcount. This is the
// arithmetic an edge accelerator or microcontroller actually executes for
// a 1-bit HDC model (the most robust configuration in the paper's Fig. 8),
// and it is typically an order of magnitude faster than float dot
// products at equal dimensionality.
package bitpack

import (
	"fmt"
	"math/bits"
)

// Vector is a packed bipolar hypervector: bit i set means dimension i is
// +1, clear means −1. Dim is the logical dimensionality; trailing bits of
// the last word are kept zero. Scoring runs on Matrix (batch.go); Vector
// with HammingDistance and Agreement is the plain one-vector reference
// the Matrix kernels are checked against.
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
