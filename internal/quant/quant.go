// Package quant provides the bit-level model deployment substrate for the
// robustness study (Fig. 8 of the DistHD paper): quantization of model
// parameters to 1/2/4/8-bit signed fixed point, a bit-exact packed memory
// image, and hardware-fault injection by flipping randomly chosen bits of
// that image — the paper's fault model ("percentage of random bit flips on
// memory storing DNN and DistHD models").
package quant

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Image is the packed memory image of a quantized tensor: N codes of Bits
// bits each, packed little-endian into 64-bit words, plus the per-tensor
// scale that maps codes back to real values.
type Image struct {
	// Bits per parameter (1, 2, 4 or 8).
	Bits int
	// N is the number of parameters.
	N int
	// Scale maps the maximum code magnitude back to the tensor's max |v|.
	Scale float64
	// Words holds the packed codes.
	Words []uint64
}

// ValidBits reports whether b is a supported precision.
func ValidBits(b int) bool { return b == 1 || b == 2 || b == 4 || b == 8 }

// maxCode returns the largest code for a precision: 2^b − 1 (offset
// binary) for b > 1, and 1 for the sign-only 1-bit case.
func maxCode(bits int) int64 {
	if bits == 1 {
		return 1
	}
	return (1 << bits) - 1
}

// Pack quantizes values to the given precision. For bits > 1 the encoding
// is offset binary over [−Scale, +Scale]: code c represents
// Scale·(2c/(2^b − 1) − 1), so all 2^b levels carry information (a
// symmetric two's-complement scheme would waste one level — at 2 bits that
// is a third of the representable range). For bits == 1 the code is the
// sign (+1/−1), matching the bipolar deployment HDC hardware uses.
func Pack(values []float64, bits int) (*Image, error) {
	if !ValidBits(bits) {
		return nil, fmt.Errorf("quant: unsupported precision %d bits", bits)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("quant: empty tensor")
	}
	maxAbs := 0.0
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	img := &Image{
		Bits:  bits,
		N:     len(values),
		Scale: maxAbs,
		Words: make([]uint64, (len(values)*bits+63)/64),
	}
	mc := maxCode(bits)
	for i, v := range values {
		var code uint64
		if bits == 1 {
			// 1 = non-negative, 0 = negative.
			if v >= 0 {
				code = 1
			}
		} else if maxAbs > 0 {
			// offset binary: [−maxAbs, +maxAbs] → [0, mc]
			q := int64(math.Round((v/maxAbs + 1) / 2 * float64(mc)))
			if q < 0 {
				q = 0
			}
			if q > mc {
				q = mc
			}
			code = uint64(q)
		} else {
			code = uint64((mc + 1) / 2) // zero tensor → midpoint code
		}
		img.setCode(i, code)
	}
	return img, nil
}

// setCode writes the i-th code (assumes it fits in Bits bits).
func (img *Image) setCode(i int, code uint64) {
	bitPos := i * img.Bits
	word, off := bitPos/64, uint(bitPos%64)
	mask := uint64((1 << img.Bits) - 1)
	img.Words[word] = (img.Words[word] &^ (mask << off)) | (code << off)
	// Codes never straddle word boundaries because Bits divides 64.
}

// code reads the i-th code.
func (img *Image) code(i int) uint64 {
	bitPos := i * img.Bits
	word, off := bitPos/64, uint(bitPos%64)
	mask := uint64((1 << img.Bits) - 1)
	return (img.Words[word] >> off) & mask
}

// Unpack reconstructs the real-valued tensor from the (possibly injured)
// memory image.
func (img *Image) Unpack() []float64 {
	out := make([]float64, img.N)
	mc := maxCode(img.Bits)
	for i := 0; i < img.N; i++ {
		code := img.code(i)
		if img.Bits == 1 {
			if code == 1 {
				out[i] = img.Scale
			} else {
				out[i] = -img.Scale
			}
			continue
		}
		if img.Scale > 0 {
			out[i] = (2*float64(code)/float64(mc) - 1) * img.Scale
		}
	}
	return out
}

// Clone returns a deep copy of the image.
func (img *Image) Clone() *Image {
	words := make([]uint64, len(img.Words))
	copy(words, img.Words)
	return &Image{Bits: img.Bits, N: img.N, Scale: img.Scale, Words: words}
}

// TotalBits returns the number of payload bits in the image.
func (img *Image) TotalBits() int { return img.N * img.Bits }

// FlipBits injures the image by flipping exactly round(rate·TotalBits)
// distinct, uniformly chosen payload bits. rate must be in [0, 1].
func (img *Image) FlipBits(rate float64, r *rng.Rand) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("quant: flip rate %v outside [0,1]", rate)
	}
	total := img.TotalBits()
	flips := int(math.Round(rate * float64(total)))
	if flips == 0 {
		return nil
	}
	// Partial Fisher-Yates over bit indices gives distinct positions
	// without allocating when flips << total would allow reservoirs; the
	// index slice is fine at the sizes used here (≤ a few hundred k bits).
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < flips; i++ {
		j := i + r.Intn(total-i)
		idx[i], idx[j] = idx[j], idx[i]
		bit := idx[i]
		img.Words[bit/64] ^= 1 << uint(bit%64)
	}
	return nil
}
