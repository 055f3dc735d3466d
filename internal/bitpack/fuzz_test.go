package bitpack

import (
	"math"
	"testing"
)

// fuzzByteToFloat maps one fuzz byte to a float value, covering exact
// zeros, signed zeros, non-finite values, and both signs of ordinary
// magnitudes.
func fuzzByteToFloat(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	default:
		return (float64(b) - 128) / 8
	}
}

// FuzzBitpackRoundTrip checks the core packed-arithmetic invariants for
// arbitrary float vectors: packing preserves the sign predicate (x ≥ 0,
// so −0 packs as +1 and NaN as −1), trailing bits of the last word stay
// zero, Agreement equals the sign-float dot product, the float→pack→
// float round trip is sign-stable, and the padded Matrix kernels score
// exactly what the scalar Vector path scores.
func FuzzBitpackRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{128, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 128, 127, 129})
	f.Add(make([]byte, 2*63))
	f.Add(make([]byte, 2*64))
	wide := make([]byte, 2*65)
	for i := range wide {
		wide[i] = byte(i * 37)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim := len(data) / 2
		xa := make([]float64, dim)
		xb := make([]float64, dim)
		for i := 0; i < dim; i++ {
			xa[i] = fuzzByteToFloat(data[i])
			xb[i] = fuzzByteToFloat(data[dim+i])
		}

		a, b := FromFloats(xa), FromFloats(xb)

		// Trailing bits of the last word must be zero.
		if rem := dim % 64; rem != 0 {
			if tail := a.Words[len(a.Words)-1] >> uint(rem); tail != 0 {
				t.Fatalf("dim %d: trailing bits set: %#x", dim, tail)
			}
		}

		// Agreement must equal the sign-float dot product under the
		// packing predicate sign(x) = +1 iff x ≥ 0.
		dot := 0
		for i := 0; i < dim; i++ {
			sa, sb := -1, -1
			if xa[i] >= 0 {
				sa = 1
			}
			if xb[i] >= 0 {
				sb = 1
			}
			dot += sa * sb
		}
		if got := Agreement(a, b); got != dot {
			t.Fatalf("dim %d: Agreement = %d, sign dot = %d", dim, got, dot)
		}

		// Round trip: unpacking to ±1 floats and repacking is identity.
		rt := FromFloats(a.ToFloats())
		for i, w := range a.Words {
			if rt.Words[i] != w {
				t.Fatalf("dim %d: round-trip word %d = %#x, want %#x", dim, i, rt.Words[i], w)
			}
		}

		// The padded Matrix kernels must agree with the scalar path.
		m := NewMatrix(2, dim)
		m.PackRow(0, xa)
		m.PackRow(1, xb)
		scores := make([]int32, 4)
		ScoreBatchInto(m, m, scores)
		if int(scores[1]) != dot || int(scores[2]) != dot {
			t.Fatalf("dim %d: matrix cross-scores %d/%d, want %d", dim, scores[1], scores[2], dot)
		}
		if int(scores[0]) != dim || int(scores[3]) != dim {
			t.Fatalf("dim %d: matrix self-scores %d/%d, want %d", dim, scores[0], scores[3], dim)
		}
	})
}
