package core

import (
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
)

// Classifier is a trained DistHD model: a (dynamically regenerated) encoder
// plus the class-hypervector model learned over it.
type Classifier struct {
	Enc   encoding.Regenerable
	Model *model.Model
	Cfg   Config
}

// IterStats records one training iteration.
type IterStats struct {
	// Iter is the 0-based iteration index.
	Iter int
	// TrainAcc is the training accuracy observed during the final adaptive
	// pass of this iteration.
	TrainAcc float64
	// Regenerated is how many dimensions were dropped and redrawn.
	Regenerated int
	// Bucket census from the top-2 classification.
	NumCorrect, NumPartial, NumIncorrect int
}

// TrainStats summarizes a full DistHD training run.
type TrainStats struct {
	Iters []IterStats
	// TotalRegenerated counts dimension regenerations across all
	// iterations (with multiplicity).
	TotalRegenerated int
	// EffectiveDim is D* = D + TotalRegenerated, the paper's effective
	// dimensionality (§IV-B).
	EffectiveDim int
	// Converged reports whether early stopping fired before the iteration
	// budget was exhausted.
	Converged bool
}

// FinalTrainAcc returns the training accuracy of the last iteration, or 0
// if no iterations ran.
func (s *TrainStats) FinalTrainAcc() float64 {
	if len(s.Iters) == 0 {
		return 0
	}
	return s.Iters[len(s.Iters)-1].TrainAcc
}

// Train runs the full DistHD procedure over raw feature matrix X with
// labels y: encode once, then iterate adaptive learning → top-2 bucketing →
// Algorithm 2 dimension scoring → regeneration. Only the regenerated
// columns of the encoded batch are recomputed between iterations.
//
// Train is Pipeline.Run over a cold NewPipeline; drive the stages directly
// for warm-start retraining (Resume) or custom schedules.
func Train(enc encoding.Regenerable, X *mat.Dense, y []int, classes int, cfg Config) (*Classifier, *TrainStats, error) {
	p, err := NewPipeline(enc, X, y, classes, cfg)
	if err != nil {
		return nil, nil, err
	}
	clf, stats := p.Run()
	return clf, stats, nil
}

// Update performs one online adaptive-learning step on a single labeled
// sample: encode, then apply model.AdaptiveStep — the single Algorithm 1
// update rule shared by every training path in this repository (batch
// epochs via model.Trainer, OnlineHD-style passes via model.FitOnline, and
// this per-sample entry point). Update itself owns only the encode; the
// learning rule lives in internal/model and is never reimplemented here.
//
// The returned bool is AdaptiveStep's verdict on the PRE-update prediction:
// true means the sample was already classified correctly and no weights
// changed; false means it was misclassified, so the wrongly-winning class
// was weakened and the true class strengthened (each scaled by the sample's
// novelty, 1 − δ). Callers stream it into windowed accuracy estimates —
// it is the "free" accuracy signal online learning gets before adapting.
//
// This is the on-device continual-learning primitive for edge deployments;
// it never regenerates dimensions (regeneration needs batch statistics —
// run Resume over a window for that).
func (c *Classifier) Update(x []float64, label int, lr float64) bool {
	h := make([]float64, c.Enc.Dim())
	c.Enc.Encode(x, h)
	scratch := make([]float64, c.Model.Classes())
	return c.Model.AdaptiveStep(h, label, lr, scratch)
}

// CloneDetached returns a deep copy of the classifier — cloned class
// weights plus a detached encoder whose regeneration stream restarts from
// regenSeed. The copy can be retrained (Resume) while the original keeps
// serving; nothing is shared between the two.
func (c *Classifier) CloneDetached(regenSeed uint64) *Classifier {
	return &Classifier{
		Enc:   c.Enc.CloneDetached(regenSeed),
		Model: c.Model.Clone(),
		Cfg:   c.Cfg,
	}
}

// Predict classifies a single raw feature vector.
func (c *Classifier) Predict(x []float64) int {
	h := make([]float64, c.Enc.Dim())
	c.Enc.Encode(x, h)
	return c.Model.Predict(h)
}

// PredictTop2 returns the two most similar classes for x, best first.
func (c *Classifier) PredictTop2(x []float64) (int, int) {
	h := make([]float64, c.Enc.Dim())
	c.Enc.Encode(x, h)
	return c.Model.Top2(h)
}

// Scores returns the per-class cosine similarities for x.
func (c *Classifier) Scores(x []float64) []float64 {
	h := make([]float64, c.Enc.Dim())
	c.Enc.Encode(x, h)
	return c.Model.Scores(h, make([]float64, c.Model.Classes()))
}

// PredictBatch classifies every row of X.
func (c *Classifier) PredictBatch(X *mat.Dense) []int {
	return c.Model.PredictBatch(c.Enc.EncodeBatch(X))
}

// Accuracy returns classification accuracy over a labeled raw batch.
func (c *Classifier) Accuracy(X *mat.Dense, y []int) float64 {
	return model.Accuracy(c.Model, c.Enc.EncodeBatch(X), y)
}

// TopKAccuracy returns the top-k accuracy over a labeled raw batch.
func (c *Classifier) TopKAccuracy(X *mat.Dense, y []int, k int) float64 {
	return model.TopKAccuracy(c.Model, c.Enc.EncodeBatch(X), y, k)
}
