// Package neuralhd implements NeuralHD (Zou et al., SC'21, the paper's
// ref [7]), the dynamic-encoding baseline DistHD is compared against in
// Figs. 4, 5 and 7. NeuralHD shares DistHD's regenerable encoder and
// adaptive trainer but selects dimensions to regenerate by *model-side
// saliency* instead of learner-aware distance matrices: a dimension whose
// (normalized) class weights are nearly identical across classes carries
// no discriminative information, and is dropped and redrawn.
package neuralhd

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
)

// Config holds NeuralHD hyperparameters.
type Config struct {
	// Dim is the physical hypervector dimensionality D.
	Dim int
	// LearningRate is η for the shared adaptive trainer.
	LearningRate float64
	// RegenRate is the fraction of dimensions regenerated per iteration.
	RegenRate float64
	// Iterations is the number of train+regenerate rounds.
	Iterations int
	// EpochsPerIter is the number of adaptive passes between regenerations.
	EpochsPerIter int
	// Seed drives shuffling.
	Seed uint64
}

// DefaultConfig mirrors the DistHD defaults so comparisons are apples to
// apples (same D, η, R, iteration budget).
func DefaultConfig() Config {
	return Config{
		Dim:           512,
		LearningRate:  0.05,
		RegenRate:     0.10,
		Iterations:    20,
		EpochsPerIter: 1,
		Seed:          1,
	}
}

// Validate reports the first configuration problem, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("neuralhd: Dim must be positive, got %d", c.Dim)
	case c.LearningRate <= 0:
		return fmt.Errorf("neuralhd: LearningRate must be positive, got %v", c.LearningRate)
	case c.RegenRate < 0 || c.RegenRate > 1:
		return fmt.Errorf("neuralhd: RegenRate must be in [0,1], got %v", c.RegenRate)
	case c.Iterations <= 0:
		return fmt.Errorf("neuralhd: Iterations must be positive, got %d", c.Iterations)
	case c.EpochsPerIter <= 0:
		return fmt.Errorf("neuralhd: EpochsPerIter must be positive, got %d", c.EpochsPerIter)
	}
	return nil
}

// Classifier is a trained NeuralHD model.
type Classifier struct {
	Enc   encoding.Regenerable
	Model *model.Model
	Cfg   Config
}

// Stats summarizes a training run.
type Stats struct {
	// TrainAccPerIter is the training accuracy after each iteration.
	TrainAccPerIter []float64
	// TotalRegenerated counts regenerated dimensions with multiplicity.
	TotalRegenerated int
}

// leastSalient returns the `budget` dimensions with the lowest saliency.
func leastSalient(m *model.Model, budget int) []int {
	// ArgTopK selects the largest; negate to select the smallest.
	neg := m.Saliency()
	for i, v := range neg {
		neg[i] = -v
	}
	return mat.ArgTopK(neg, budget)
}

// Train runs the NeuralHD loop over raw features X: adaptive training, then
// regeneration of the least-salient dimensions each iteration.
func Train(enc encoding.Regenerable, X *mat.Dense, y []int, classes int, cfg Config) (*Classifier, *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if X.Rows != len(y) {
		return nil, nil, fmt.Errorf("neuralhd: %d samples but %d labels", X.Rows, len(y))
	}
	if X.Rows == 0 {
		return nil, nil, fmt.Errorf("neuralhd: empty training set")
	}
	if enc.Dim() != cfg.Dim {
		return nil, nil, fmt.Errorf("neuralhd: encoder dim %d != config dim %d", enc.Dim(), cfg.Dim)
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return nil, nil, fmt.Errorf("neuralhd: label %d at row %d outside [0,%d)", label, i, classes)
		}
	}

	m := model.New(classes, cfg.Dim)
	H := enc.EncodeBatch(X)
	stats := &Stats{}
	budget := int(cfg.RegenRate * float64(cfg.Dim))

	for iter := 0; iter < cfg.Iterations; iter++ {
		tc := model.TrainConfig{
			LearningRate: cfg.LearningRate,
			Epochs:       cfg.EpochsPerIter,
			Seed:         cfg.Seed ^ (uint64(iter)+1)*0x9e3779b97f4a7c15,
		}
		res, err := model.Fit(m, H, y, tc)
		if err != nil {
			return nil, nil, err
		}
		stats.TrainAccPerIter = append(stats.TrainAccPerIter, res.History[len(res.History)-1])

		if iter < cfg.Iterations-1 && budget > 0 {
			dims := leastSalient(m, budget)
			enc.Regenerate(dims)
			enc.EncodeDimsBatch(X, dims, H)
			m.ZeroDims(dims)
			m.WarmStartDims(H, y, dims)
			stats.TotalRegenerated += len(dims)
		}
	}
	return &Classifier{Enc: enc, Model: m, Cfg: cfg}, stats, nil
}

// PredictBatch classifies every row of X.
func (c *Classifier) PredictBatch(X *mat.Dense) []int {
	return c.Model.PredictBatch(c.Enc.EncodeBatch(X))
}

// Accuracy returns accuracy over a labeled raw batch.
func (c *Classifier) Accuracy(X *mat.Dense, y []int) float64 {
	return model.Accuracy(c.Model, c.Enc.EncodeBatch(X), y)
}
