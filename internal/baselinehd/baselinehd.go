// Package baselinehd implements the static-encoder bipolar HDC classifier
// of Rahimi et al. (ISLPED'16) — "baselineHD" in the DistHD paper's
// evaluation (ref [6]). It is the SOTA-HDC reference point of Figs. 2, 4,
// 5 and 7: a fixed bipolar random-projection encoder, one-shot bundling
// initialization, and perceptron-style retraining on integer accumulators,
// with inference by Hamming similarity against the sign-quantized class
// hypervectors.
//
// Because the encoder is static and the model bipolar, this learner needs
// far higher dimensionality (the paper's D* = 4k) to match the accuracy
// DistHD reaches at D = 0.5k — which is precisely the gap the paper's
// dynamic encoding closes.
package baselinehd

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/rng"
)

// Config holds baselineHD hyperparameters.
type Config struct {
	// Dim is the hypervector dimensionality.
	Dim int
	// Epochs is the number of perceptron retraining passes after the
	// initial bundling.
	Epochs int
	// Seed drives the encoder and shuffling.
	Seed uint64
}

// Validate reports the first configuration problem, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("baselinehd: Dim must be positive, got %d", c.Dim)
	case c.Epochs < 0:
		return fmt.Errorf("baselinehd: Epochs must be non-negative, got %d", c.Epochs)
	}
	return nil
}

// Classifier is a trained baselineHD model. Acc holds the integer-valued
// accumulators; classification uses their sign (the bipolar class
// hypervectors), so the deployed model is 1 bit per dimension.
type Classifier struct {
	Enc *encoding.Linear
	// Acc is the accumulator matrix (classes × Dim).
	Acc *mat.Dense
	cfg Config
}

// Train builds the encoder, bundles every training sample into its class
// accumulator, then runs perceptron retraining: misclassified samples are
// added to their true class and subtracted from the predicted class.
func Train(X *mat.Dense, y []int, classes int, cfg Config) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if X.Rows != len(y) {
		return nil, fmt.Errorf("baselinehd: %d samples but %d labels", X.Rows, len(y))
	}
	if X.Rows == 0 {
		return nil, fmt.Errorf("baselinehd: empty training set")
	}
	if classes < 2 {
		return nil, fmt.Errorf("baselinehd: need at least 2 classes, got %d", classes)
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, fmt.Errorf("baselinehd: label %d at row %d outside [0,%d)", label, i, classes)
		}
	}

	enc := encoding.NewLinear(X.Cols, cfg.Dim, true, cfg.Seed)
	H := enc.EncodeBatch(X)
	c := &Classifier{Enc: enc, Acc: mat.New(classes, cfg.Dim), cfg: cfg}

	// One-shot bundling: C_l = Σ_{i: y_i = l} H_i.
	for i := 0; i < H.Rows; i++ {
		mat.Axpy(c.Acc.Row(y[i]), 1, H.Row(i))
	}

	// Perceptron retraining on the bipolar (sign) view.
	r := rng.New(cfg.Seed ^ 0xabcdef)
	for e := 0; e < cfg.Epochs; e++ {
		order := r.Perm(H.Rows)
		errors := 0
		for _, i := range order {
			h := H.Row(i)
			pred := c.predictEncoded(h)
			if pred != y[i] {
				errors++
				mat.Axpy(c.Acc.Row(y[i]), 1, h)
				mat.Axpy(c.Acc.Row(pred), -1, h)
			}
		}
		if errors == 0 {
			break
		}
	}
	return c, nil
}

// predictEncoded classifies an already-encoded bipolar hypervector using
// Hamming similarity against sign-quantized accumulators: the class whose
// sign pattern agrees with h in the most positions. Equivalent to the
// argmax of Σ_d sign(Acc_ld)·h_d.
func (c *Classifier) predictEncoded(h []float64) int {
	best := 0
	bestScore := hammingAgreement(c.Acc.Row(0), h)
	for l := 1; l < c.Acc.Rows; l++ {
		if s := hammingAgreement(c.Acc.Row(l), h); s > bestScore {
			best, bestScore = l, s
		}
	}
	return best
}

// hammingAgreement counts sign agreements between accumulator row acc and
// bipolar hypervector h (zero accumulator entries count as +1, matching
// the fixed tie-break used by sign quantization).
func hammingAgreement(acc, h []float64) float64 {
	var s float64
	for i, a := range acc {
		sa := 1.0
		if a < 0 {
			sa = -1
		}
		s += sa * h[i]
	}
	return s
}

// signView writes the sign-quantized accumulators into a pooled buffer.
// Hamming agreement against a bipolar hypervector is exactly the dot
// product with this view, so batch classification runs on the shared
// blocked GEMM kernels; every term is ±1, so the sums are exact integers
// and the kernel result is bitwise identical to the scalar loop.
func (c *Classifier) signView() (*mat.Dense, *mat.Scratch) {
	s := mat.GetScratch(c.Acc.Rows * c.Acc.Cols)
	sv := mat.View(c.Acc.Rows, c.Acc.Cols, s.Buf)
	for i, v := range c.Acc.Data {
		if v < 0 {
			sv.Data[i] = -1
		} else {
			sv.Data[i] = 1
		}
	}
	return sv, s
}

// PredictBatch classifies every row of X via one blocked GEMM against the
// sign-quantized class hypervectors.
func (c *Classifier) PredictBatch(X *mat.Dense) []int {
	H := c.Enc.EncodeBatch(X)
	out := make([]int, H.Rows)
	sv, svS := c.signView()
	scoreS := mat.GetScratch(H.Rows * c.Acc.Rows)
	scores := mat.View(H.Rows, c.Acc.Rows, scoreS.Buf)
	mat.MulTInto(scores, H, sv)
	mat.ParallelFor(H.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = mat.ArgMax(scores.Row(i))
		}
	})
	scoreS.Release()
	svS.Release()
	return out
}

// Accuracy returns accuracy over a labeled raw batch.
func (c *Classifier) Accuracy(X *mat.Dense, y []int) float64 {
	pred := c.PredictBatch(X)
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}
