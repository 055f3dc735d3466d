package encoding

// The packed 1-bit query encoder. A quantized model only ever consumes
// the SIGN of each RBF activation, so the packed encode path skips the
// cos·sin evaluation entirely — after the projection GEMM it decides
// each sign with the trig-free analytic rule in bitpack (exact-rounding
// multiply/floor/compare over fractional turns) and writes bits straight
// into a bitpack.Matrix row — and it runs that projection in float32:
// sign decisions don't need double precision, and the f32 kernels move
// half the memory and run twice the SIMD lanes of the float64 GEMM. On
// the serving path that replaces the math.Sincos epilogue and the f64
// projection — the two dominant costs of f32 encoding — with an f32 FMA
// GEMM and an AVX-512 sign-pack kernel. The f32 kernels are bit-identical
// across ISA tiers (see internal/mat/f32.go), so packed encodes of the
// same input produce the same bits on every host.

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/mat"
)

// PackedRBF wraps an RBF encoder with a packed batch encode. It is a
// lightweight per-caller view (construction allocates the wrapper, its
// epilogue closure, and — first wrapper over a given encoder only — the
// encoder's shared f32 base cache): the serving Batcher builds one per replica
// so packed encodes stay zero-alloc. A PackedRBF must not be used from
// more than one goroutine at a time; concurrent callers each take their
// own wrapper around the same shared RBF.
type PackedRBF struct {
	e   *RBF
	dst *bitpack.Matrix
	// post is the fused-GEMM epilogue: it reads the raw f32 projection
	// row and writes packed sign bits into dst's matching row. Bound once
	// at construction so encodes allocate nothing.
	post func(i int, row []float32)
}

// NewPackedRBF wraps enc, which must be an *RBF — the only encoder
// family with a packed sign rule. Other encoders return an error so
// callers can fall back to f32 serving. Construction warms the encoder's
// shared f32 base cache, so the one-time lowering happens here instead
// of inside the first encode.
func NewPackedRBF(enc Encoder) (*PackedRBF, error) {
	e, ok := enc.(*RBF)
	if !ok {
		return nil, fmt.Errorf("encoding: packed encode requires an RBF encoder, have %T", enc)
	}
	e.base32()
	p := &PackedRBF{e: e}
	p.post = func(i int, row []float32) {
		bitpack.PackActivationSigns32(row, p.e.fracPhase, p.dst.Row(i))
	}
	return p, nil
}

// Dim returns the hypervector dimensionality.
func (p *PackedRBF) Dim() int { return p.e.Dim() }

// Features returns the expected input width.
func (p *PackedRBF) Features() int { return p.e.Features() }

// EncodeBatchPackedInto encodes every row of X directly into packed sign
// bits: one blocked f32 projection GEMM into the caller's z scratch (N×D;
// left holding raw projections) with the sign-pack epilogue fused onto
// each completed row. dst must have dst.Rows == X.Rows and dst.Dim ==
// Dim(). Allocates nothing after the encoder's f32 base is cached.
func (p *PackedRBF) EncodeBatchPackedInto(X, z *mat.Dense32, dst *bitpack.Matrix) {
	if X.Cols != p.Features() {
		panic(fmt.Sprintf("encoding: packed batch has %d features, encoder expects %d", X.Cols, p.Features()))
	}
	if z.Rows != X.Rows || z.Cols != p.Dim() {
		panic(fmt.Sprintf("encoding: packed z is %dx%d, want %dx%d", z.Rows, z.Cols, X.Rows, p.Dim()))
	}
	if dst.Rows != X.Rows || dst.Dim != p.e.Dim() {
		panic(fmt.Sprintf("encoding: packed dst is %d×%d, want %d×%d",
			dst.Rows, dst.Dim, X.Rows, p.e.Dim()))
	}
	p.dst = dst
	mat.MulTInto32Fused(z, X, p.e.base32(), p.post)
	p.dst = nil
}
