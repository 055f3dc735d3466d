// Package hv implements the hypervector algebra that HDC (hyperdimensional
// computing) is built on, as summarized in §III-A of the DistHD paper:
// similarity (cosine / Hamming), bundling (element-wise addition, the
// memory operation), binding (element-wise multiplication, the association
// operation), permutation (sequence encoding), and bipolar quantization.
//
// Hypervectors are plain []float64 slices; bipolar vectors hold ±1 values.
// In a space with dimension D large enough, independently drawn random
// bipolar hypervectors are nearly orthogonal (dot ≈ 0), which is the
// property every operation here exploits; the package tests assert it.
package hv

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/rng"
)

// RandomBipolar returns a fresh ±1 hypervector of dimension d.
func RandomBipolar(d int, r *rng.Rand) []float64 {
	h := make([]float64, d)
	for i := range h {
		h[i] = r.Bipolar()
	}
	return h
}

// RandomGaussian returns a hypervector with i.i.d. N(0,1) components.
func RandomGaussian(d int, r *rng.Rand) []float64 {
	h := make([]float64, d)
	r.FillNorm(h, 0, 1)
	return h
}

// Cosine returns the cosine similarity δ(a, b) from eq. (1) of the paper.
func Cosine(a, b []float64) float64 { return mat.CosineSim(a, b) }

// Dot returns the raw inner product.
func Dot(a, b []float64) float64 { return mat.Dot(a, b) }

// Hamming returns the normalized Hamming distance between two bipolar
// hypervectors: the fraction of positions where they disagree in sign.
// Zero components count as disagreement with any nonzero component.
func Hamming(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("hv: Hamming length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	diff := 0
	for i := range a {
		sa, sb := sign(a[i]), sign(b[i])
		if sa != sb {
			diff++
		}
	}
	return float64(diff) / float64(len(a))
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Bundle returns the element-wise sum of the given hypervectors — the HDC
// memorization operator (+). The result is similar to each input.
func Bundle(hs ...[]float64) []float64 {
	if len(hs) == 0 {
		return nil
	}
	out := make([]float64, len(hs[0]))
	for _, h := range hs {
		if len(h) != len(out) {
			panic("hv: Bundle dimension mismatch")
		}
		mat.Axpy(out, 1, h)
	}
	return out
}

// Bind returns the element-wise product a*b — the HDC association operator
// (*). For bipolar inputs the result is nearly orthogonal to both inputs
// and binding is its own inverse: Bind(Bind(a,b), a) == b.
func Bind(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("hv: Bind dimension mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Permute returns h cyclically rotated right by k positions. Permutation
// produces a near-orthogonal hypervector while preserving pairwise
// similarities, and is the standard way to encode order/position.
func Permute(h []float64, k int) []float64 {
	n := len(h)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	for i, v := range h {
		out[(i+k)%n] = v
	}
	return out
}

// Sign quantizes h to bipolar in place: positive → +1, negative → -1,
// zero → +1 (a fixed tie-break keeps quantization deterministic).
func Sign(h []float64) {
	for i, v := range h {
		if v < 0 {
			h[i] = -1
		} else {
			h[i] = 1
		}
	}
}

// Majority bundles bipolar hypervectors and sign-quantizes the result,
// i.e. the element-wise majority vote. Ties break positive.
func Majority(hs ...[]float64) []float64 {
	out := Bundle(hs...)
	Sign(out)
	return out
}

// CheckDim panics with a descriptive message when a hypervector does not
// have the expected dimension. Used by callers at API boundaries.
func CheckDim(h []float64, d int) {
	if len(h) != d {
		panic(fmt.Sprintf("hv: dimension %d, want %d", len(h), d))
	}
}
