// Package svm implements the SVM comparator of the DistHD evaluation
// (ref [28]): a one-vs-rest maximum-margin linear classifier trained with
// Pegasos-style stochastic subgradient descent on the hinge loss, with an
// optional random-Fourier-feature lift that approximates an RBF-kernel SVM
// (the variant scikit-learn's grid search typically lands on for the
// paper's datasets). Training cost scales with the lifted dimensionality,
// which is why Fig. 5 shows SVMs falling behind on the large datasets —
// the same asymmetry this implementation reproduces.
package svm

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Config holds SVM hyperparameters.
type Config struct {
	// Lambda is the L2 regularization strength (Pegasos λ).
	Lambda float64
	// Epochs over the training set.
	Epochs int
	// RFFDim, when positive, lifts inputs through that many random Fourier
	// features (cosine features), approximating an RBF kernel. Zero keeps
	// the plain linear SVM.
	RFFDim int
	// Gamma is the RBF kernel width for the RFF lift; ignored when
	// RFFDim == 0. Zero selects 1/q (the scikit-learn "scale"-like default).
	Gamma float64
	// Seed drives the feature map and shuffling.
	Seed uint64
}

// DefaultConfig returns an RFF-lifted SVM comparable to a grid-searched
// RBF-kernel SVM.
func DefaultConfig() Config {
	return Config{Lambda: 1e-4, Epochs: 30, RFFDim: 1024, Seed: 1}
}

// Validate reports the first configuration problem, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Lambda <= 0:
		return fmt.Errorf("svm: Lambda must be positive, got %v", c.Lambda)
	case c.Epochs <= 0:
		return fmt.Errorf("svm: Epochs must be positive, got %d", c.Epochs)
	case c.RFFDim < 0:
		return fmt.Errorf("svm: RFFDim must be non-negative, got %d", c.RFFDim)
	case c.Gamma < 0:
		return fmt.Errorf("svm: Gamma must be non-negative, got %v", c.Gamma)
	}
	return nil
}

// Machine is a trained one-vs-rest SVM.
type Machine struct {
	// W holds one weight vector per class over the lifted feature space.
	// The last column is the bias weight: features are augmented with a
	// constant 1 so the bias shares the regularized Pegasos update instead
	// of receiving the raw 1/(λt) steps, which diverge early in training.
	W *mat.Dense
	// rffW/rffB define the cosine feature map when RFFDim > 0.
	rffW *mat.Dense
	rffB []float64
	cfg  Config
	in   int
}

// Train fits a one-vs-rest SVM on X, y.
func Train(X *mat.Dense, y []int, classes int, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if X.Rows != len(y) {
		return nil, fmt.Errorf("svm: %d samples but %d labels", X.Rows, len(y))
	}
	if X.Rows == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if classes < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes, got %d", classes)
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, fmt.Errorf("svm: label %d at row %d outside [0,%d)", label, i, classes)
		}
	}

	m := &Machine{cfg: cfg, in: X.Cols}
	r := rng.New(cfg.Seed)
	featDim := X.Cols
	if cfg.RFFDim > 0 {
		gamma := cfg.Gamma
		if gamma == 0 {
			gamma = 1 / float64(X.Cols)
		}
		m.rffW = mat.New(cfg.RFFDim, X.Cols)
		r.FillNorm(m.rffW.Data, 0, math.Sqrt(2*gamma))
		m.rffB = make([]float64, cfg.RFFDim)
		r.FillUniform(m.rffB, 0, 2*math.Pi)
		featDim = cfg.RFFDim
	}
	m.W = mat.New(classes, featDim+1) // +1 for the bias feature

	// Pre-lift the training set once.
	F := m.lift(X)

	// Pegasos: step size 1/(λ·t) with averaged projection-free updates.
	t := 1
	shuffle := rng.New(cfg.Seed ^ 0xf00d)
	for e := 0; e < cfg.Epochs; e++ {
		order := shuffle.Perm(F.Rows)
		for _, i := range order {
			x := F.Row(i)
			eta := 1 / (cfg.Lambda * float64(t))
			t++
			for c := 0; c < classes; c++ {
				target := -1.0
				if y[i] == c {
					target = 1
				}
				margin := target * mat.Dot(m.W.Row(c), x)
				// w ← (1 − ηλ)w (+ η·target·x if margin < 1)
				mat.Scale(m.W.Row(c), 1-eta*cfg.Lambda)
				if margin < 1 {
					mat.Axpy(m.W.Row(c), eta*target, x)
				}
			}
		}
	}
	return m, nil
}

// lift applies the RFF cosine feature map (or identity) to every row of X
// and appends the constant bias feature.
func (m *Machine) lift(X *mat.Dense) *mat.Dense {
	var featDim int
	if m.rffW == nil {
		featDim = X.Cols
	} else {
		featDim = m.rffW.Rows
	}
	out := mat.New(X.Rows, featDim+1)
	scale := math.Sqrt(2 / float64(featDim))
	mat.ParallelFor(X.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := X.Row(i)
			row := out.Row(i)
			if m.rffW == nil {
				copy(row, x)
			} else {
				for j := 0; j < m.rffW.Rows; j++ {
					row[j] = scale * math.Cos(mat.Dot(m.rffW.Row(j), x)+m.rffB[j])
				}
			}
			row[featDim] = 1
		}
	})
	return out
}

// PredictBatch classifies every row of X in parallel.
func (m *Machine) PredictBatch(X *mat.Dense) []int {
	F := m.lift(X)
	out := make([]int, F.Rows)
	mat.ParallelFor(F.Rows, func(lo, hi int) {
		vals := make([]float64, m.W.Rows)
		for i := lo; i < hi; i++ {
			f := F.Row(i)
			for c := 0; c < m.W.Rows; c++ {
				vals[c] = mat.Dot(m.W.Row(c), f)
			}
			out[i] = mat.ArgMax(vals)
		}
	})
	return out
}

// Accuracy returns classification accuracy over a labeled batch.
func (m *Machine) Accuracy(X *mat.Dense, y []int) float64 {
	if X.Rows == 0 {
		return 0
	}
	pred := m.PredictBatch(X)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}
