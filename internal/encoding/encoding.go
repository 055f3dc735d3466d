// Package encoding maps low-dimensional feature vectors into
// hyperdimensional space. It provides the two encoder families used in
// the DistHD paper and its baselines:
//
//   - RBF: the paper's nonlinear encoder (§III-C, "Dimension Regeneration"),
//     h_d = cos(B_d·F + c_d) · sin(B_d·F) with Gaussian base vectors and
//     uniform phases — a random-Fourier-feature kernel approximation
//     (Rahimi & Recht, ref [21]).
//   - Linear: a plain Gaussian random projection, optionally sign-quantized;
//     the classic static bipolar encoder of baselineHD (ref [6]).
//
// Batch encoding is one blocked GEMM (X·Bᵀ via mat.MulTIntoFused) with the
// encoder nonlinearity fused onto each merged range of output rows while
// it is still cache-resident, rather than N independent matrix-vector
// loops; the single-sample paths run through the same kernels, so batch
// and single encodes agree bitwise.
//
// RBF and Linear implement Regenerable: DistHD and NeuralHD call
// Regenerate(dims) to replace the base hypervector (and phase) of selected
// dimensions with fresh random draws, which is the paper's neural
// regeneration mechanism, then patch the regenerated columns of the
// already-encoded training batch in place with EncodeDimsBatch.
package encoding

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bitpack"
	"repro/internal/mat"
	"repro/internal/rng"
)

// Encoder maps feature vectors of a fixed input width to hypervectors of a
// fixed dimensionality.
type Encoder interface {
	// Dim returns the hypervector dimensionality D.
	Dim() int
	// Features returns the expected input width q.
	Features() int
	// Encode writes the hypervector of x into dst (len(dst) == Dim()).
	Encode(x, dst []float64)
	// EncodeBatch encodes every row of X into a new N×D matrix.
	EncodeBatch(X *mat.Dense) *mat.Dense
	// EncodeBatchInto encodes every row of X into dst (N×D) and returns
	// dst, allocating nothing for the result itself.
	EncodeBatchInto(X, dst *mat.Dense) *mat.Dense
}

// Regenerable is an Encoder whose individual dimensions can be re-drawn.
// After Regenerate(dims), encoding the same input produces new values
// exactly at those coordinates and identical values elsewhere.
type Regenerable interface {
	Encoder
	// Regenerate replaces the base vectors of the listed dimensions with
	// fresh random draws. Out-of-range dims panic (programmer error).
	Regenerate(dims []int)
	// EncodeDimsBatch recomputes the listed output dimensions for every
	// row of X, patching column dims[j] of the already-encoded matrix H in
	// place. This is the DistHD cheap-retrain path: after Regenerate, only
	// the regenerated columns of the training batch are recomputed — as
	// one compact blocked GEMM over the gathered base rows — instead of
	// re-encoding everything. Values match Encode bitwise.
	EncodeDimsBatch(X *mat.Dense, dims []int, H *mat.Dense)
	// CloneDetached returns a deep copy encoding identically to the
	// original, whose regeneration stream restarts from regenSeed — the
	// primitive behind background retraining: the clone can regenerate
	// dimensions freely while the original keeps serving untouched.
	CloneDetached(regenSeed uint64) Regenerable
}

// checkBatch validates a batch encode request, returning the shared shape.
func checkBatch(e Encoder, X, dst *mat.Dense) {
	if X.Cols != e.Features() {
		panic(fmt.Sprintf("encoding: batch has %d features, encoder expects %d", X.Cols, e.Features()))
	}
	if dst.Rows != X.Rows || dst.Cols != e.Dim() {
		panic(fmt.Sprintf("encoding: batch dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, X.Rows, e.Dim()))
	}
}

// checkDimsBatch validates an EncodeDimsBatch request.
func checkDimsBatch(e Encoder, X *mat.Dense, dims []int, H *mat.Dense) {
	if X.Cols != e.Features() {
		panic(fmt.Sprintf("encoding: batch has %d features, encoder expects %d", X.Cols, e.Features()))
	}
	if H.Rows != X.Rows || H.Cols != e.Dim() {
		panic(fmt.Sprintf("encoding: encoded batch is %dx%d, want %dx%d", H.Rows, H.Cols, X.Rows, e.Dim()))
	}
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic(fmt.Sprintf("encoding: EncodeDimsBatch dim %d out of [0,%d)", d, e.Dim()))
		}
	}
}

// dimsTile is the row-tile height of encodeDimsBatch: it bounds the
// pooled projection buffer at dimsTile×len(dims) however large the
// training set grows, and is a multiple of the kernel row block so tiling
// never changes results (each output element is row-independent).
const dimsTile = 4096

// encodeDimsBatch is the shared scaffolding behind both EncodeDimsBatch
// implementations: the base rows of the listed dims are gathered into a
// compact panel, projected against row tiles of X as blocked GEMMs in
// pooled buffers, and apply maps each projection to its final value while
// scattering into H's columns.
func encodeDimsBatch(base, X *mat.Dense, dims []int, H *mat.Dense, apply func(d int, z float64) float64) {
	if len(dims) == 0 || X.Rows == 0 {
		return
	}
	q := base.Cols
	r := len(dims)
	tileRows := X.Rows
	if tileRows > dimsTile {
		tileRows = dimsTile
	}
	subS := mat.GetScratch(r * q)
	zS := mat.GetScratch(tileRows * r)
	sub := mat.View(r, q, subS.Buf)
	for j, d := range dims {
		copy(sub.Row(j), base.Row(d))
	}
	for t0 := 0; t0 < X.Rows; t0 += dimsTile {
		t1 := t0 + dimsTile
		if t1 > X.Rows {
			t1 = X.Rows
		}
		Xt := mat.View(t1-t0, q, X.Data[t0*q:t1*q])
		z := mat.View(t1-t0, r, zS.Buf[:(t1-t0)*r])
		mat.MulTIntoFused(z, Xt, sub, func(i int, zrow []float64) {
			hrow := H.Row(t0 + i)
			for j, d := range dims {
				hrow[d] = apply(d, zrow[j])
			}
		})
	}
	zS.Release()
	subS.Release()
}

// RBF is the paper's nonlinear regenerable encoder.
type RBF struct {
	base  *mat.Dense // D×q Gaussian base vectors, one per output dimension
	phase []float64  // D phases c_d ~ U[0, 2π)
	// cosPhase/sinPhase cache cos(c_d) and sin(c_d) so the nonlinearity
	// cos(z+c)·sin(z) expands to (cos z·cos c − sin z·sin c)·sin z and
	// needs a single math.Sincos per element instead of two trig calls of
	// unrelated angles.
	cosPhase, sinPhase []float64
	// fracPhase caches frac(c_d/2π) for the packed 1-bit encode path
	// (bitpack.PackActivationSigns32), which decides activation signs with
	// the trig-free analytic rule instead of evaluating cos·sin.
	fracPhase []float64
	// base32c lazily caches the float32 lowering of base for the packed
	// projection GEMM, which only consumes activation signs and so runs
	// in single precision. Regenerate drops the cache; concurrent readers
	// may race to rebuild it, which is harmless (both lowerings are
	// identical).
	base32c atomic.Pointer[mat.Dense32]
	sigma   float64   // per-component std of base draws (kernel bandwidth)
	regen   *rng.Rand // stream that feeds regeneration draws
	// post is the fused-GEMM epilogue (nonlinearRow bound to this encoder),
	// built once at construction so batch encodes allocate nothing.
	post func(i int, row []float64)
}

// NewRBF builds an RBF encoder for q input features and D output
// dimensions, deterministically from seed.
//
// The paper draws base components from N(0,1); that implicitly assumes the
// dot product B_d·F stays O(1). With z-scored inputs of dimensionality q
// the dot product has standard deviation ≈ √q·σ, so the base components are
// drawn from N(0, 1/q) here — the standard random-Fourier-features
// bandwidth — keeping the effective kernel width comparable across the
// paper's datasets (q ranges from 49 to 784). Use NewRBFWithBandwidth to
// override.
func NewRBF(q, d int, seed uint64) *RBF {
	return NewRBFWithBandwidth(q, d, 1/math.Sqrt(float64(q)), seed)
}

// NewRBFWithBandwidth builds an RBF encoder whose base components are drawn
// from N(0, sigma²). Smaller sigma = wider, smoother kernel.
func NewRBFWithBandwidth(q, d int, sigma float64, seed uint64) *RBF {
	if q <= 0 || d <= 0 {
		panic(fmt.Sprintf("encoding: NewRBF(%d, %d) with non-positive size", q, d))
	}
	if sigma <= 0 {
		panic(fmt.Sprintf("encoding: non-positive RBF bandwidth %v", sigma))
	}
	root := rng.New(seed)
	init := root.Split()
	e := &RBF{
		base:     mat.New(d, q),
		phase:    make([]float64, d),
		cosPhase: make([]float64, d),
		sinPhase: make([]float64, d),
		sigma:    sigma,
		regen:    root.Split(),
	}
	init.FillNorm(e.base.Data, 0, sigma)
	init.FillUniform(e.phase, 0, 2*math.Pi)
	return e.finish()
}

// finish completes construction shared by every RBF constructor: the
// phase trig caches and the fused-GEMM epilogue bound to this encoder.
func (e *RBF) finish() *RBF {
	e.refreshPhaseCache()
	e.post = func(_ int, row []float64) { e.nonlinearRow(row) }
	return e
}

// refreshPhaseCache recomputes the cached cos/sin and fractional-turn
// views of every phase.
func (e *RBF) refreshPhaseCache() {
	if e.fracPhase == nil {
		e.fracPhase = make([]float64, len(e.phase))
	}
	for d, c := range e.phase {
		e.sinPhase[d], e.cosPhase[d] = math.Sincos(c)
		e.fracPhase[d] = bitpack.FracTurns(c)
	}
}

// Dim returns the hypervector dimensionality.
func (e *RBF) Dim() int { return e.base.Rows }

// Features returns the expected input width.
func (e *RBF) Features() int { return e.base.Cols }

// activate maps one projection z to output dimension d's value,
// cos(z + c_d)·sin(z), expanded against the cached phase trig. Every RBF
// encode path (nonlinearRow, EncodeDimsBatch, the tests' EncodeDims) must
// go through this single definition: the bitwise equivalence between
// batch encoding and the regeneration patch path depends on the formula
// never diverging.
// The one vectorized copy of it, mat.ActivateRBF, is pinned to it bit for
// bit by TestNonlinearRowMatchesActivate.
func (e *RBF) activate(d int, z float64) float64 {
	sz, cz := math.Sincos(z)
	return (cz*e.cosPhase[d] - sz*e.sinPhase[d]) * sz
}

// nonlinearRow maps the full-width projection row z to
// cos(z_d + c_d)·sin(z_d) in place. On the AVX-512 tier mat.ActivateRBF
// computes whole 8-lane groups; activate computes everything else: the
// whole row on other tiers, the tail, and each group holding a projection
// the kernel hands back (|z| ≥ 2^29, NaN or ±Inf).
func (e *RBF) nonlinearRow(row []float64) {
	for d := 0; d < len(row); {
		d += mat.ActivateRBF(row[d:], e.cosPhase[d:], e.sinPhase[d:])
		for end := min(d+mat.ActivationLanes, len(row)); d < end; d++ {
			row[d] = e.activate(d, row[d])
		}
	}
}

// Encode computes h_d = cos(B_d·x + c_d) · sin(B_d·x) for every dimension.
// It runs through the same blocked kernels as EncodeBatch, so single and
// batch encodes of the same input agree bitwise.
func (e *RBF) Encode(x, dst []float64) {
	if len(x) != e.Features() || len(dst) != e.Dim() {
		panic("encoding: RBF.Encode size mismatch")
	}
	xm := mat.View(1, len(x), x)
	dm := mat.View(1, len(dst), dst)
	mat.MulTInto(dm, xm, e.base)
	e.nonlinearRow(dst)
}

// EncodeBatch encodes every row of X into a new N×D matrix.
func (e *RBF) EncodeBatch(X *mat.Dense) *mat.Dense {
	return e.EncodeBatchInto(X, mat.New(X.Rows, e.Dim()))
}

// EncodeBatchInto encodes every row of X into dst: one blocked GEMM
// (X·Bᵀ) with the cos·sin nonlinearity fused onto each completed row.
// With a caller-owned dst the steady-state path allocates nothing.
func (e *RBF) EncodeBatchInto(X, dst *mat.Dense) *mat.Dense {
	checkBatch(e, X, dst)
	return mat.MulTIntoFused(dst, X, e.base, e.post)
}

// Regenerate redraws the Gaussian base vector and phase of each listed
// dimension, implementing the paper's dimension regeneration (step P).
func (e *RBF) Regenerate(dims []int) {
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic(fmt.Sprintf("encoding: Regenerate dim %d out of [0,%d)", d, e.Dim()))
		}
		e.regen.FillNorm(e.base.Row(d), 0, e.sigma)
		e.phase[d] = e.regen.Uniform(0, 2*math.Pi)
		e.sinPhase[d], e.cosPhase[d] = math.Sincos(e.phase[d])
		e.fracPhase[d] = bitpack.FracTurns(e.phase[d])
	}
	e.base32c.Store(nil)
}

// base32 returns the float32 lowering of the projection base, building
// and caching it on first use. The cache survives until Regenerate
// redraws base rows.
func (e *RBF) base32() *mat.Dense32 {
	if b := e.base32c.Load(); b != nil {
		return b
	}
	b := mat.NewDense32(e.base.Rows, e.base.Cols)
	b.SetFrom(e.base)
	e.base32c.Store(b)
	return b
}

// EncodeDimsBatch patches the regenerated columns of H in place via the
// shared gather/GEMM/scatter scaffolding (see encodeDimsBatch); buffers
// come from the scratch pool, so the steady-state retrain loop allocates
// almost nothing.
func (e *RBF) EncodeDimsBatch(X *mat.Dense, dims []int, H *mat.Dense) {
	checkDimsBatch(e, X, dims, H)
	encodeDimsBatch(e.base, X, dims, H, e.activate)
}

// Params exposes the encoder's defining parameters for serialization:
// the base matrix (D×q), the phase vector (D) and the bandwidth sigma.
// The returned values are live views; callers must not mutate them.
func (e *RBF) Params() (base *mat.Dense, phase []float64, sigma float64) {
	return e.base, e.phase, e.sigma
}

// NewRBFFromParams reconstructs an RBF encoder from serialized parameters
// (deep-copied). The regeneration stream restarts from regenSeed; a loaded
// model used for inference never draws from it.
func NewRBFFromParams(base *mat.Dense, phase []float64, sigma float64, regenSeed uint64) (*RBF, error) {
	if base == nil || base.Rows != len(phase) {
		return nil, fmt.Errorf("encoding: inconsistent RBF params (%d base rows, %d phases)", baseRows(base), len(phase))
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("encoding: non-positive bandwidth %v", sigma)
	}
	ph := make([]float64, len(phase))
	copy(ph, phase)
	e := &RBF{
		base:     base.Clone(),
		phase:    ph,
		cosPhase: make([]float64, len(phase)),
		sinPhase: make([]float64, len(phase)),
		sigma:    sigma,
		regen:    rng.New(regenSeed),
	}
	return e.finish(), nil
}

func baseRows(b *mat.Dense) int {
	if b == nil {
		return -1
	}
	return b.Rows
}

// CloneDetached returns a deep copy of the encoder whose regeneration
// stream restarts from regenSeed (see Regenerable.CloneDetached).
func (e *RBF) CloneDetached(regenSeed uint64) Regenerable {
	c, err := NewRBFFromParams(e.base, e.phase, e.sigma, regenSeed)
	if err != nil {
		panic(err) // the source encoder's params are valid by construction
	}
	return c
}

// Linear is a Gaussian random-projection encoder, optionally sign-quantized
// to bipolar output — the static encoder of baselineHD.
type Linear struct {
	base    *mat.Dense
	bipolar bool
	regen   *rng.Rand
}

// NewLinear builds a linear encoder; if bipolar is true the output is
// sign-quantized to ±1.
func NewLinear(q, d int, bipolar bool, seed uint64) *Linear {
	if q <= 0 || d <= 0 {
		panic(fmt.Sprintf("encoding: NewLinear(%d, %d) with non-positive size", q, d))
	}
	root := rng.New(seed)
	init := root.Split()
	e := &Linear{base: mat.New(d, q), bipolar: bipolar, regen: root.Split()}
	init.FillNorm(e.base.Data, 0, 1)
	return e
}

// Dim returns the hypervector dimensionality.
func (e *Linear) Dim() int { return e.base.Rows }

// Features returns the expected input width.
func (e *Linear) Features() int { return e.base.Cols }

// signRow sign-quantizes row in place (zero counts positive).
func signRow(row []float64) {
	for i, v := range row {
		if v < 0 {
			row[i] = -1
		} else {
			row[i] = 1
		}
	}
}

// signPost is signRow as a capture-free fused-GEMM epilogue; referencing it
// never allocates.
func signPost(_ int, row []float64) { signRow(row) }

// Encode projects x through the Gaussian base, sign-quantizing if bipolar.
// Runs through the same blocked kernels as EncodeBatch (bitwise agreement).
func (e *Linear) Encode(x, dst []float64) {
	if len(x) != e.Features() || len(dst) != e.Dim() {
		panic("encoding: Linear.Encode size mismatch")
	}
	xm := mat.View(1, len(x), x)
	dm := mat.View(1, len(dst), dst)
	mat.MulTInto(dm, xm, e.base)
	if e.bipolar {
		signRow(dst)
	}
}

// EncodeBatch encodes every row of X into a new N×D matrix.
func (e *Linear) EncodeBatch(X *mat.Dense) *mat.Dense {
	return e.EncodeBatchInto(X, mat.New(X.Rows, e.Dim()))
}

// EncodeBatchInto encodes every row of X into dst as one blocked GEMM,
// with sign quantization fused onto each completed row when bipolar.
func (e *Linear) EncodeBatchInto(X, dst *mat.Dense) *mat.Dense {
	checkBatch(e, X, dst)
	if !e.bipolar {
		return mat.MulTInto(dst, X, e.base)
	}
	return mat.MulTIntoFused(dst, X, e.base, signPost)
}

// Regenerate redraws the base vectors of the listed dimensions.
func (e *Linear) Regenerate(dims []int) {
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic(fmt.Sprintf("encoding: Regenerate dim %d out of [0,%d)", d, e.Dim()))
		}
		e.regen.FillNorm(e.base.Row(d), 0, 1)
	}
}

// CloneDetached returns a deep copy of the encoder whose regeneration
// stream restarts from regenSeed (see Regenerable.CloneDetached).
func (e *Linear) CloneDetached(regenSeed uint64) Regenerable {
	return &Linear{base: e.base.Clone(), bipolar: e.bipolar, regen: rng.New(regenSeed)}
}

// EncodeDimsBatch patches the listed columns of H in place via the shared
// gather/GEMM/scatter scaffolding (see encodeDimsBatch).
func (e *Linear) EncodeDimsBatch(X *mat.Dense, dims []int, H *mat.Dense) {
	checkDimsBatch(e, X, dims, H)
	encodeDimsBatch(e.base, X, dims, H, func(_ int, z float64) float64 {
		if e.bipolar {
			if z < 0 {
				return -1
			}
			return 1
		}
		return z
	})
}

// Interface conformance checks.
var (
	_ Regenerable = (*RBF)(nil)
	_ Regenerable = (*Linear)(nil)
)
