// Package model implements the HDC class-hypervector model and the
// adaptive learning rule of Algorithm 1 in the DistHD paper. The model is
// shared by every HDC learner in this repository: baselineHD trains it over
// a static encoder, and DistHD / NeuralHD retrain it while regenerating
// encoder dimensions between iterations.
package model

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Model holds one hypervector per class plus cached norms so that cosine
// similarity (eq. 1 of the paper) reduces to a dot product.
type Model struct {
	// Weights holds the class hypervectors as rows (Classes × Dim).
	Weights *mat.Dense
	norms   []float64 // cached Euclidean norm per class row
}

// New returns a zero-initialized model for k classes and dimension d.
func New(k, d int) *Model {
	if k < 2 || d <= 0 {
		panic(fmt.Sprintf("model: New(%d, %d) invalid", k, d))
	}
	return &Model{Weights: mat.New(k, d), norms: make([]float64, k)}
}

// Classes returns the number of classes.
func (m *Model) Classes() int { return m.Weights.Rows }

// Dim returns the hypervector dimensionality.
func (m *Model) Dim() int { return m.Weights.Cols }

// Clone returns a deep copy.
func (m *Model) Clone() *Model {
	c := &Model{Weights: m.Weights.Clone(), norms: make([]float64, len(m.norms))}
	copy(c.norms, m.norms)
	return c
}

// RefreshNorms recomputes every cached class norm. Call after bulk edits to
// Weights made outside the package's own update methods.
func (m *Model) RefreshNorms() {
	for c := 0; c < m.Classes(); c++ {
		m.norms[c] = mat.Norm2(m.Weights.Row(c))
	}
}

// refreshNorm updates the cached norm of a single class.
func (m *Model) refreshNorm(c int) { m.norms[c] = mat.Norm2(m.Weights.Row(c)) }

// Scores writes δ(h, C_l) for every class into dst and returns dst.
// δ is cosine similarity; classes with zero norm score 0.
func (m *Model) Scores(h []float64, dst []float64) []float64 {
	if len(dst) != m.Classes() {
		panic("model: Scores dst length mismatch")
	}
	hn := mat.Norm2(h)
	if hn == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for c := 0; c < m.Classes(); c++ {
		if m.norms[c] == 0 {
			dst[c] = 0
			continue
		}
		dst[c] = mat.Dot(h, m.Weights.Row(c)) / (hn * m.norms[c])
	}
	return dst
}

// Predict returns the most similar class for hypervector h.
func (m *Model) Predict(h []float64) int {
	dst := make([]float64, m.Classes())
	return mat.ArgMax(m.Scores(h, dst))
}

// Top2 returns the two most similar classes for h, best first.
func (m *Model) Top2(h []float64) (int, int) {
	dst := make([]float64, m.Classes())
	return mat.ArgTop2(m.Scores(h, dst))
}

// PredictBatch classifies every row of H. The score matrix comes from the
// shared scratch pool; use PredictBatchInto to control both buffers.
func (m *Model) PredictBatch(H *mat.Dense) []int {
	out := make([]int, H.Rows)
	s := mat.GetScratch(H.Rows * m.Classes())
	m.PredictBatchInto(H, mat.View(H.Rows, m.Classes(), s.Buf), out)
	s.Release()
	return out
}

// PredictBatchInto classifies every row of H into out (len H.Rows), using
// scores (H.Rows × Classes) as the scoring buffer. The argmax runs in the
// scoring GEMM's epilogue, on each row as soon as it is scored.
// Steady-state batched inference through this entry point allocates
// nothing on one core (one epilogue closure and one shard closure on
// more).
func (m *Model) PredictBatchInto(H, scores *mat.Dense, out []int) []int {
	if len(out) != H.Rows {
		panic("model: PredictBatchInto out length mismatch")
	}
	m.scoreBatch(H, scores, out)
	return out
}

// ScoreBatchInto writes the N×k cosine-similarity matrix of H into dst and
// returns it: one blocked GEMM H·Wᵀ whose epilogue (mat.MulTIntoFused)
// scales each row by the norms as soon as the row is complete, instead
// of N independent dot-product loops. Rows with zero norm, and classes
// with zero norm, score 0. With caller-owned dst the steady-state path
// allocates nothing on one core.
//
// Batch and single-sample scoring agree to floating-point rounding but not
// bitwise: Scores uses the 4-way-unrolled mat.Dot (the AdaptiveStep hot
// path cannot afford the blocked kernel's sequential lanes), while the
// batch path accumulates in the kernel's panel order. Unlike the encoding
// layer — where EncodeDimsBatch patches columns of a batch-encoded matrix
// and bitwise parity is therefore load-bearing — scored values from the
// two paths are never mixed in one structure, so sub-ulp disagreement on
// exact score ties is acceptable here.
func (m *Model) ScoreBatchInto(H, dst *mat.Dense) *mat.Dense {
	return m.scoreBatch(H, dst, nil)
}

// scoreBatch is the scoring GEMM H·Wᵀ into dst with its epilogue,
// finishRows. With more than one core the epilogue runs in the GEMM's
// shards: mat.MulTIntoFused hands over the rows of each finished range in
// order, and its ranges start on multiples of eight rows, so the row that
// closes an aligned group of four (or the last row) finds the whole group
// done. On one core the epilogue is a pass after the product, since an
// epilogue closure handed to the GEMM would be a heap allocation per
// call; the rows and their bits are the same either way.
func (m *Model) scoreBatch(H, dst *mat.Dense, out []int) *mat.Dense {
	if mat.Serial() {
		mat.MulTInto(dst, H, m.Weights)
		m.finishRows(H, dst, out, 0, H.Rows)
		return dst
	}
	return mat.MulTIntoFused(dst, H, m.Weights, func(i int, _ []float64) {
		if i%4 == 3 || i == H.Rows-1 {
			m.finishRows(H, dst, out, i&^3, i+1)
		}
	})
}

// finishRows finishes rows [i0, i1) of dst four at a time: mat.RowNorms
// takes the four rows' norms in one sweep of H, and finishRow scales
// each.
func (m *Model) finishRows(H, dst *mat.Dense, out []int, i0, i1 int) {
	var hn [4]float64
	for ; i0 < i1; i0 += len(hn) {
		norms := hn[:min(len(hn), i1-i0)]
		mat.RowNorms(norms, H, i0)
		for r, n := range norms {
			m.finishRow(dst.Row(i0+r), n, out, i0+r)
		}
	}
}

// finishRow converts the raw dot products of row i, whose hypervector
// has norm hn, into cosine similarities and, with a non-nil out, stores
// the row's argmax in out[i].
func (m *Model) finishRow(row []float64, hn float64, out []int, i int) {
	for c := range row {
		if hn == 0 || m.norms[c] == 0 {
			row[c] = 0
		} else {
			row[c] /= hn * m.norms[c]
		}
	}
	if out != nil {
		out[i] = mat.ArgMax(row)
	}
}

// ZeroDims zeroes the given coordinates in every class hypervector. DistHD
// and NeuralHD call this right after regenerating those encoder dimensions,
// because the old class values at those coordinates were accumulated under
// the old base vectors and are meaningless under the new ones.
func (m *Model) ZeroDims(dims []int) {
	for _, d := range dims {
		if d < 0 || d >= m.Dim() {
			panic(fmt.Sprintf("model: ZeroDims index %d out of [0,%d)", d, m.Dim()))
		}
		for c := 0; c < m.Classes(); c++ {
			m.Weights.Row(c)[d] = 0
		}
	}
	m.RefreshNorms()
}

// Saliency returns, per dimension, the variance across classes of the
// row-normalized class weights: the signal NeuralHD regenerates by and
// DistHD guards its eliminations with. A low value marks a dimension that
// responds alike for every class, so it carries little discriminative
// information.
func (m *Model) Saliency() []float64 {
	norm := m.Weights.Clone()
	norm.RowNormalizeL2()
	out := make([]float64, m.Dim())
	col := make([]float64, m.Classes())
	for j := range out {
		for c := range col {
			col[c] = norm.At(c, j)
		}
		out[j] = mat.Variance(col)
	}
	return out
}

// WarmStartDims seeds the class weights of freshly regenerated dimensions
// with the class-conditional mean of the new encoded column of H (labels
// y) — a one-pass bundling restricted to those dimensions, so they take
// part in classification at once instead of waiting for error-driven
// updates.
func (m *Model) WarmStartDims(H *mat.Dense, y []int, dims []int) {
	k := m.Classes()
	counts := make([]float64, k)
	for _, label := range y {
		counts[label]++
	}
	sums := mat.New(k, len(dims))
	for i := 0; i < H.Rows; i++ {
		row := H.Row(i)
		srow := sums.Row(y[i])
		for j, d := range dims {
			srow[j] += row[d]
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		srow := sums.Row(c)
		wrow := m.Weights.Row(c)
		for j, d := range dims {
			wrow[d] = srow[j] / counts[c]
		}
	}
	m.RefreshNorms()
}

// AdaptiveStep applies the Algorithm 1 update for a single encoded sample
// h with true label y: if the most similar class is wrong, the wrong class
// is weakened and the true class strengthened, each scaled by how *novel*
// the sample is to that class (1 − δ). Returns true if the prediction was
// already correct.
func (m *Model) AdaptiveStep(h []float64, y int, lr float64, scratch []float64) bool {
	scores := m.Scores(h, scratch)
	pred := mat.ArgMax(scores)
	if pred == y {
		return true
	}
	// C_pred ← C_pred − η(1 − δ_pred)·H
	mat.Axpy(m.Weights.Row(pred), -lr*(1-scores[pred]), h)
	// C_true ← C_true + η(1 − δ_true)·H
	mat.Axpy(m.Weights.Row(y), lr*(1-scores[y]), h)
	m.refreshNorm(pred)
	m.refreshNorm(y)
	return false
}

// OnlineStep applies the OnlineHD-style single-pass rule for one encoded
// sample: the error-driven half is exactly AdaptiveStep (weaken the
// wrongly-winning class, strengthen the true class), and on top of it the
// true class additionally memorizes every ALREADY-CORRECT sample scaled by
// its novelty: C_y += η(1 − δ_y)·H. This is the one place the
// "memorize everything" initialization rule is defined; FitOnline's initial
// pass is a shuffled loop of OnlineStep calls. Returns AdaptiveStep's
// verdict: whether the pre-update prediction was already correct.
func (m *Model) OnlineStep(h []float64, y int, lr float64, scratch []float64) bool {
	correct := m.AdaptiveStep(h, y, lr, scratch)
	if correct {
		// scratch still holds the pre-update scores AdaptiveStep computed;
		// δ_y = scratch[y]. A misclassified sample already had its true
		// class strengthened by this exact term inside AdaptiveStep.
		mat.Axpy(m.Weights.Row(y), lr*(1-scratch[y]), h)
		m.refreshNorm(y)
	}
	return correct
}

// TrainConfig controls Fit.
type TrainConfig struct {
	// LearningRate is η in Algorithm 1.
	LearningRate float64
	// Epochs is the maximum number of full passes over the data.
	Epochs int
	// Patience stops training after this many consecutive epochs without
	// improvement in training accuracy; 0 disables early stopping.
	Patience int
	// Seed drives the per-epoch shuffle.
	Seed uint64
}

// TrainResult reports per-epoch training accuracy.
type TrainResult struct {
	// History[i] is the training accuracy observed during epoch i (fraction
	// of samples whose pre-update prediction was already correct).
	History []float64
	// Epochs is the number of epochs actually run.
	Epochs int
}

// Trainer runs Algorithm 1 epochs over a model with every buffer — the
// shuffle order, the score scratch, and the RNG itself — preallocated, so
// the steady-state training iteration allocates nothing. DistHD's
// train/regenerate loop owns one Trainer across all iterations, reseeding
// the shuffle stream per iteration.
type Trainer struct {
	m       *Model
	r       *rng.Rand
	order   []int
	scratch []float64
}

// NewTrainer returns a Trainer for m whose shuffle stream starts from seed.
func NewTrainer(m *Model, seed uint64) *Trainer {
	return &Trainer{m: m, r: rng.New(seed), scratch: make([]float64, m.Classes())}
}

// Reseed restarts the shuffle stream in place, as if the Trainer had been
// freshly created with this seed.
func (t *Trainer) Reseed(seed uint64) { t.r.Reseed(seed) }

// Epoch runs one shuffled adaptive pass (Algorithm 1) over (H, y) with
// learning rate lr and returns the fraction of samples whose pre-update
// prediction was already correct (1.0 for an empty batch). It consumes
// exactly the random draws Fit's per-epoch shuffle consumes, so Fit on a
// fresh Trainer reproduces the historical trajectories bit for bit.
func (t *Trainer) Epoch(H *mat.Dense, y []int, lr float64) float64 {
	n := H.Rows
	if cap(t.order) < n {
		t.order = make([]int, n)
	}
	order := t.order[:n]
	t.r.PermInto(order)
	correct := 0
	for _, i := range order {
		if t.m.AdaptiveStep(H.Row(i), y[i], lr, t.scratch) {
			correct++
		}
	}
	if n == 0 {
		return 1.0
	}
	return float64(correct) / float64(n)
}

// Fit runs Algorithm 1 for up to cfg.Epochs passes over the encoded
// training set H with labels y, shuffling the visit order each epoch.
func Fit(m *Model, H *mat.Dense, y []int, cfg TrainConfig) (*TrainResult, error) {
	if H.Rows != len(y) {
		return nil, fmt.Errorf("model: %d samples but %d labels", H.Rows, len(y))
	}
	if H.Cols != m.Dim() {
		return nil, fmt.Errorf("model: encoded dim %d != model dim %d", H.Cols, m.Dim())
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("model: non-positive learning rate %v", cfg.LearningRate)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("model: non-positive epoch count %d", cfg.Epochs)
	}
	t := NewTrainer(m, cfg.Seed)
	res := &TrainResult{History: make([]float64, 0, cfg.Epochs)}
	best := -1.0
	stall := 0
	for e := 0; e < cfg.Epochs; e++ {
		acc := t.Epoch(H, y, cfg.LearningRate)
		res.History = append(res.History, acc)
		res.Epochs = e + 1
		if cfg.Patience > 0 {
			if acc > best+1e-9 {
				best = acc
				stall = 0
			} else {
				stall++
				if stall >= cfg.Patience {
					break
				}
			}
		}
	}
	return res, nil
}

// FitOnline runs an OnlineHD-style single-pass initialization followed by
// cfg.Epochs of adaptive refinement. Unlike the purely error-driven
// Algorithm 1, the initial pass updates the true class on EVERY sample,
// scaled by novelty: C_y += η(1−δ_y)·H, and additionally weakens a
// wrongly-winning class (the OnlineStep rule). This converges faster from
// scratch at the cost of some saturation — the trade-off the
// iterative-vs-single-pass HDC literature explores.
func FitOnline(m *Model, H *mat.Dense, y []int, cfg TrainConfig) (*TrainResult, error) {
	if H.Rows != len(y) {
		return nil, fmt.Errorf("model: %d samples but %d labels", H.Rows, len(y))
	}
	if H.Cols != m.Dim() {
		return nil, fmt.Errorf("model: encoded dim %d != model dim %d", H.Cols, m.Dim())
	}
	if cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("model: non-positive learning rate %v", cfg.LearningRate)
	}
	scratch := make([]float64, m.Classes())
	r := rng.New(cfg.Seed ^ 0x0411e)
	correct := 0
	for _, i := range r.Perm(H.Rows) {
		if m.OnlineStep(H.Row(i), y[i], cfg.LearningRate, scratch) {
			correct++
		}
	}
	res := &TrainResult{Epochs: 1}
	if H.Rows > 0 {
		res.History = append(res.History, float64(correct)/float64(H.Rows))
	}
	if cfg.Epochs > 1 {
		refine := cfg
		refine.Epochs = cfg.Epochs - 1
		more, err := Fit(m, H, y, refine)
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, more.History...)
		res.Epochs += more.Epochs
	}
	return res, nil
}

// Accuracy returns the fraction of rows of H whose prediction matches y.
func Accuracy(m *Model, H *mat.Dense, y []int) float64 {
	if H.Rows == 0 {
		return math.NaN()
	}
	pred := m.PredictBatch(H)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// TopKAccuracy returns the fraction of rows whose true label appears among
// the k most similar classes — the paper's "top-k classification" metric
// from Fig. 2(b).
func TopKAccuracy(m *Model, H *mat.Dense, y []int, k int) float64 {
	if H.Rows == 0 {
		return math.NaN()
	}
	s := mat.GetScratch(H.Rows * m.Classes())
	scores := mat.View(H.Rows, m.Classes(), s.Buf)
	m.ScoreBatchInto(H, scores)
	correct := 0
	for i := 0; i < H.Rows; i++ {
		top := mat.ArgTopK(scores.Row(i), k)
		for _, c := range top {
			if c == y[i] {
				correct++
				break
			}
		}
	}
	s.Release()
	return float64(correct) / float64(H.Rows)
}
