package disthd

import (
	"fmt"
	"sync"

	"repro/internal/bitpack"
	"repro/internal/encoding"
	"repro/internal/mat"
)

// Replica is a single-goroutine inference context: every buffer batched
// prediction needs — the row-gathered input matrix, the encoded batch, and
// the score matrix — is cut once from one contiguous float64 allocation
// and reused for the replica's lifetime, so the steady-state serving loop
// allocates nothing and never contends on a shared pool.
//
// A Replica is shape-bound, not model-bound: it serves any model whose
// (features, dim, classes) match the model it was created from, which is
// exactly the compatibility contract serve.Swapper enforces for hot swaps.
// That is what makes an in-flight model swap free: the worker keeps its
// scratch and only the *Model pointer it passes to PredictBatch changes.
// The scratch always includes the packed tier's buffers (query sign bits
// and integer agreement scores), so swapping between an f32 champion and
// a 1-bit quantized successor of the same shape is equally free; the only
// per-swap cost is rebinding the packed encoder wrapper the first time a
// new quantized model is served (one small allocation, off the steady
// state).
//
// A Replica must not be shared across goroutines; give each worker its own.
//
// Release hands a replica that is no longer needed to a process-wide idle
// set of at most maxIdleReplicas replicas and maxIdleBytes of scratch, and
// NewReplica takes one of the same shape from there before it builds a
// new one, so a serving unit that gives its idle replicas back and later
// serves again (a parked tenant waking) reuses its scratch instead of
// zeroing a fresh arena.
type Replica struct {
	features, dim, classes int
	maxBatch               int
	x, h, s                mat.Dense // views over xbuf, hbuf, sbuf
	xbuf, hbuf, sbuf       []float64 // capped cuts of one allocation

	// Packed-tier scratch: the packed projection runs in float32 (x32
	// holds the lowered inputs, z32 the raw projections; both are padded
	// views over f32buf with zero padding the kernels rely on), qm holds
	// the packed query bits of a chunk (qview is the live sub-view handed
	// to the kernels), iscores the integer agreement scores. penc is the
	// packed encoder wrapper bound to pencSrc, rebuilt only when the
	// served model's encoder changes.
	x32, z32 mat.Dense32
	f32buf   []float32
	qm       *bitpack.Matrix
	qview    bitpack.Matrix
	iscores  []int32
	penc     *encoding.PackedRBF
	pencSrc  encoding.Encoder
	bytes    int  // scratch size
	idle     bool // in the idle set; guarded by idleSet.mu
}

// The idle set's bounds: constants, so the memory released replicas keep
// does not grow with the number of tenants or shapes. A replica larger
// than maxIdleBytes on its own is left to the collector.
const (
	maxIdleReplicas = 8
	maxIdleBytes    = 32 << 20
)

// idleSet holds released replicas, oldest first, and their scratch bytes.
// A release into a full set drops the oldest until the new one fits, so
// the set keeps the shapes released last.
var idleSet struct {
	mu    sync.Mutex
	reps  []*Replica
	bytes int
}

// Release hands r's scratch to the idle set NewReplica draws from. The
// packed encoder binding is dropped first, so an idle replica pins no
// model. r must not be used after Release; releasing it twice panics.
func (r *Replica) Release() {
	r.penc, r.pencSrc = nil, nil
	idleSet.mu.Lock()
	defer idleSet.mu.Unlock()
	if r.idle {
		panic("disthd: Replica released twice")
	}
	if r.bytes > maxIdleBytes {
		return
	}
	for len(idleSet.reps) == maxIdleReplicas || idleSet.bytes+r.bytes > maxIdleBytes {
		dropIdle(0)
	}
	r.idle = true
	idleSet.reps = append(idleSet.reps, r)
	idleSet.bytes += r.bytes
}

// dropIdle removes the i-th idle replica from the set and returns it;
// idleSet.mu is held.
func dropIdle(i int) *Replica {
	reps := idleSet.reps
	r := reps[i]
	copy(reps[i:], reps[i+1:])
	reps[len(reps)-1] = nil
	idleSet.reps = reps[:len(reps)-1]
	idleSet.bytes -= r.bytes
	r.idle = false
	return r
}

// takeIdle removes and returns the most recently released idle replica
// of exactly this shape, nil when there is none.
func takeIdle(q, d, k, maxBatch int) *Replica {
	idleSet.mu.Lock()
	defer idleSet.mu.Unlock()
	for i := len(idleSet.reps) - 1; i >= 0; i-- {
		r := idleSet.reps[i]
		if r.features == q && r.dim == d && r.classes == k && r.maxBatch == maxBatch {
			return dropIdle(i)
		}
	}
	return nil
}

// NewReplica returns an inference context sized for batches of up to
// maxBatch rows, shaped after m: a released replica of that exact shape
// when the idle set holds one, a new one otherwise. maxBatch must be
// positive.
func (m *Model) NewReplica(maxBatch int) (*Replica, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("disthd: NewReplica batch size %d, want > 0", maxBatch)
	}
	// Bind the packed encoder up front for a quantized model so the first
	// request doesn't pay the one-time wrapper + f32 base cache build;
	// PredictScratch rebinds lazily after a hot swap changes the encoder.
	var penc *encoding.PackedRBF
	if m.Quantized() {
		p, err := encoding.NewPackedRBF(m.clf.Enc)
		if err != nil {
			return nil, fmt.Errorf("disthd: quantized model without RBF encoder: %w", err)
		}
		penc = p
	}
	q, d, k := m.Features(), m.Dim(), m.Classes()
	r := takeIdle(q, d, k, maxBatch)
	if r == nil {
		r = newReplica(q, d, k, maxBatch)
	}
	if penc != nil {
		r.penc, r.pencSrc = penc, m.clf.Enc
	}
	return r, nil
}

// newReplica allocates the scratch of a replica of the given shape. The
// three float64 buffers are capped cuts of one allocation, so they sit
// together in memory and an append to one cannot overwrite the next.
func newReplica(q, d, k, maxBatch int) *Replica {
	buf := make([]float64, maxBatch*(q+d+k))
	xEnd, hEnd := maxBatch*q, maxBatch*(q+d)
	qs, ds := mat.Stride32(q), mat.Stride32(d)
	r := &Replica{
		features: q, dim: d, classes: k,
		maxBatch: maxBatch,
		xbuf:     buf[:xEnd:xEnd],
		hbuf:     buf[xEnd:hEnd:hEnd],
		sbuf:     buf[hEnd:],
		f32buf:   make([]float32, maxBatch*(qs+ds)),
		qm:       bitpack.NewMatrix(maxBatch, d),
		iscores:  make([]int32, maxBatch*k),
	}
	r.x32 = *mat.View32(maxBatch, q, r.f32buf[:maxBatch*qs])
	r.z32 = *mat.View32(maxBatch, d, r.f32buf[maxBatch*qs:])
	r.qview = *r.qm
	r.bytes = 8*len(buf) + 4*len(r.f32buf) + 8*len(r.qm.Words) + 4*len(r.iscores)
	return r
}

// MaxBatch returns the largest chunk the replica predicts in one kernel
// pass; larger inputs to PredictBatch are chunked transparently.
func (r *Replica) MaxBatch() int { return r.maxBatch }

// Compatible reports whether the replica's scratch fits m — same feature
// width, hypervector dimensionality and class count. Quantized and f32
// models of the same shape are equally compatible.
func (r *Replica) Compatible(m *Model) bool {
	return m.Features() == r.features && m.Dim() == r.dim && m.Classes() == r.classes
}

// PredictBatch classifies rows through m into out (len(out) >= len(rows)),
// running the zero-allocation EncodeBatchInto → PredictBatchInto kernel
// path over the replica's scratch — or, for a quantized model, the
// packed encode → XOR+popcount path over the packed scratch. Inputs longer
// than MaxBatch are copied into InputScratch and classified by
// PredictScratch in MaxBatch-sized chunks. It returns the number of rows
// written, which is len(rows) on success.
func (r *Replica) PredictBatch(m *Model, rows [][]float64, out []int) (int, error) {
	for i, row := range rows {
		if len(row) != r.features {
			return 0, fmt.Errorf("disthd: row %d has %d features, model expects %d", i, len(row), r.features)
		}
	}
	done := 0
	for done < len(rows) {
		n := min(len(rows)-done, r.maxBatch)
		for i, row := range rows[done : done+n] {
			copy(r.xbuf[i*r.features:], row)
		}
		if err := r.PredictScratch(m, n, out[done:]); err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

// bindPacked (re)binds the packed encoder wrapper to m's encoder; a no-op
// on the steady state, one small allocation after a hot swap changes the
// encoder.
func (r *Replica) bindPacked(m *Model) {
	if r.pencSrc == m.clf.Enc {
		return
	}
	p, err := encoding.NewPackedRBF(m.clf.Enc)
	if err != nil {
		// Unreachable: Quantize1Bit and the packed loader only produce
		// RBF-encoded models.
		panic(fmt.Sprintf("disthd: quantized model without RBF encoder: %v", err))
	}
	r.penc, r.pencSrc = p, m.clf.Enc
}

// InputScratch exposes the replica's input buffer sized for n rows of
// Features() values each, row-major. A decoder that lands request rows
// here and then calls PredictScratch skips the intermediate [][]float64 a
// PredictBatch call would need — the decode-into-scratch fast path the
// binary wire protocol rides. The returned slice aliases the replica's
// scratch and is only valid until the next predict call on this replica.
func (r *Replica) InputScratch(n int) ([]float64, error) {
	if n <= 0 || n > r.maxBatch {
		return nil, fmt.Errorf("disthd: InputScratch for %d rows, want 1..%d", n, r.maxBatch)
	}
	return r.xbuf[:n*r.features], nil
}

// PredictScratch classifies the n rows currently resident in InputScratch
// through m into out (len(out) >= n), without copying them again. For a
// quantized model the rows are lowered from the scratch into the packed
// float32 path; for an f32 model the kernels run over the scratch
// directly. Steady-state it allocates nothing.
func (r *Replica) PredictScratch(m *Model, n int, out []int) error {
	if !r.Compatible(m) {
		return fmt.Errorf("disthd: replica shaped %d/%d/%d cannot serve model shaped %d/%d/%d",
			r.features, r.dim, r.classes, m.Features(), m.Dim(), m.Classes())
	}
	if n <= 0 || n > r.maxBatch {
		return fmt.Errorf("disthd: PredictScratch over %d rows, want 1..%d", n, r.maxBatch)
	}
	if len(out) < n {
		return fmt.Errorf("disthd: out has %d slots for %d rows", len(out), n)
	}
	out = out[:n]
	if !m.Quantized() {
		r.x = mat.Dense{Rows: n, Cols: r.features, Data: r.xbuf[:n*r.features]}
		r.h = mat.Dense{Rows: n, Cols: r.dim, Data: r.hbuf[:n*r.dim]}
		r.s = mat.Dense{Rows: n, Cols: r.classes, Data: r.sbuf[:n*r.classes]}
		m.clf.Enc.EncodeBatchInto(&r.x, &r.h)
		m.clf.Model.PredictBatchInto(&r.h, &r.s, out)
		return nil
	}
	// The packed projection runs in float32: lower the rows into the
	// padded f32 scratch (writing only the logical columns keeps the zero
	// padding the kernels run over).
	r.bindPacked(m)
	r.x32.Rows, r.z32.Rows, r.qview.Rows = n, n, n
	for i := 0; i < n; i++ {
		r.x32.SetRow(i, r.xbuf[i*r.features:(i+1)*r.features])
	}
	r.penc.EncodeBatchPackedInto(&r.x32, &r.z32, &r.qview)
	r.x32.Rows, r.z32.Rows = r.maxBatch, r.maxBatch
	bitpack.PredictBatchInto(m.packed, &r.qview, r.iscores[:n*r.classes], out)
	return nil
}
