package disthd

import (
	"fmt"
	"math"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/mat"
)

// Config selects the DistHD hyperparameters. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Dim is the physical hypervector dimensionality D. The paper's
	// compressed operating point is 512 ("0.5k").
	Dim int
	// Iterations is the number of train-then-regenerate rounds.
	Iterations int
	// LearningRate is η of the adaptive learning rule (Algorithm 1).
	LearningRate float64
	// Alpha, Beta, Theta weight the distance matrices of Algorithm 2.
	// Alpha scales distance-from-the-true-label (sensitivity knob); Beta
	// and Theta scale closeness-to-the-wrong-labels (specificity knobs).
	// Theta must be < Beta.
	Alpha, Beta, Theta float64
	// RegenRate is R, the fraction of dimensions regenerated per
	// iteration.
	RegenRate float64
	// Encoder picks the encoder family (EncoderRBF by default).
	Encoder EncoderKind
	// Seed makes the whole run reproducible.
	Seed uint64
}

// EncoderKind selects the regenerable encoder family.
type EncoderKind int

const (
	// EncoderRBF is the paper's nonlinear encoder:
	// h_d = cos(B_d·x + c_d)·sin(B_d·x).
	EncoderRBF EncoderKind = iota
	// EncoderLinear is a Gaussian random projection.
	EncoderLinear
)

// DefaultConfig returns the paper-shaped defaults (D = 512, 20 iterations,
// η = 0.05, α = β = 1, θ = 0.5, R = 10%, RBF encoder).
func DefaultConfig() Config {
	c := core.DefaultConfig()
	return Config{
		Dim:          c.Dim,
		Iterations:   c.Iterations,
		LearningRate: c.LearningRate,
		Alpha:        c.Alpha,
		Beta:         c.Beta,
		Theta:        c.Theta,
		RegenRate:    c.RegenRate,
		Encoder:      EncoderRBF,
		Seed:         1,
	}
}

// toCore translates the public config to the internal one.
func (c Config) toCore() core.Config {
	cc := core.DefaultConfig()
	cc.Dim = c.Dim
	cc.Iterations = c.Iterations
	cc.LearningRate = c.LearningRate
	cc.Alpha = c.Alpha
	cc.Beta = c.Beta
	cc.Theta = c.Theta
	cc.RegenRate = c.RegenRate
	cc.Seed = c.Seed
	return cc
}

// Model is a trained DistHD classifier.
type Model struct {
	clf  *core.Classifier
	kind EncoderKind
	// packed, when non-nil, marks the model as a frozen 1-bit quantized
	// view (see Quantize1Bit): the packed sign bits of every class
	// hypervector, served through the XOR+popcount kernels.
	packed *bitpack.Matrix
	// Info summarizes the training run that produced the model.
	Info TrainInfo
}

// TrainInfo reports how training went.
type TrainInfo struct {
	// Iterations actually run (early stopping may cut the budget short).
	Iterations int
	// RegeneratedDims counts regenerations with multiplicity.
	RegeneratedDims int
	// EffectiveDim is D* = D + RegeneratedDims, the paper's effective
	// dimensionality metric.
	EffectiveDim int
	// FinalTrainAccuracy is the training accuracy of the last iteration.
	FinalTrainAccuracy float64
}

// Train fits a DistHD classifier with the default configuration.
// X holds one sample per row; y[i] in [0, classes) labels X[i].
func Train(X [][]float64, y []int, classes int) (*Model, error) {
	return TrainWithConfig(X, y, classes, DefaultConfig())
}

// TrainWithConfig fits a DistHD classifier with an explicit configuration.
func TrainWithConfig(X [][]float64, y []int, classes int, cfg Config) (*Model, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("disthd: empty training set")
	}
	features := len(X[0])
	if features == 0 {
		return nil, fmt.Errorf("disthd: samples have no features")
	}
	for i, row := range X {
		if len(row) != features {
			return nil, fmt.Errorf("disthd: ragged input, sample %d has %d features, want %d", i, len(row), features)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("disthd: non-finite feature %v at sample %d, column %d "+
					"(NaN/Inf would silently poison the class hypervectors)", v, i, j)
			}
		}
	}
	var enc encoding.Regenerable
	switch cfg.Encoder {
	case EncoderRBF:
		enc = encoding.NewRBF(features, cfg.Dim, cfg.Seed^0xd15c0)
	case EncoderLinear:
		enc = encoding.NewLinear(features, cfg.Dim, false, cfg.Seed^0xd15c0)
	default:
		return nil, fmt.Errorf("disthd: unknown encoder kind %d", cfg.Encoder)
	}
	clf, stats, err := core.Train(enc, mat.FromRows(X), y, classes, cfg.toCore())
	if err != nil {
		return nil, err
	}
	return &Model{
		clf:  clf,
		kind: cfg.Encoder,
		Info: TrainInfo{
			Iterations:         len(stats.Iters),
			RegeneratedDims:    stats.TotalRegenerated,
			EffectiveDim:       stats.EffectiveDim,
			FinalTrainAccuracy: stats.FinalTrainAcc(),
		},
	}, nil
}

// Classes returns the number of classes the model separates.
func (m *Model) Classes() int { return m.clf.Model.Classes() }

// Dim returns the physical hypervector dimensionality.
func (m *Model) Dim() int { return m.clf.Model.Dim() }

// Features returns the expected input width.
func (m *Model) Features() int { return m.clf.Enc.Features() }

// Predict classifies a single feature vector. On a quantized model this
// runs entirely on the packed tier (sign-bit encode, XOR+popcount
// scoring).
func (m *Model) Predict(x []float64) (int, error) {
	if len(x) != m.Features() {
		return 0, fmt.Errorf("disthd: input has %d features, model expects %d", len(x), m.Features())
	}
	if m.Quantized() {
		out, _ := m.packedPredictBatch([][]float64{x})
		return out[0], nil
	}
	return m.clf.Predict(x), nil
}

// PredictTop2 returns the two most plausible classes, best first — the
// top-2 classification primitive at the heart of the paper.
func (m *Model) PredictTop2(x []float64) (first, second int, err error) {
	if len(x) != m.Features() {
		return 0, 0, fmt.Errorf("disthd: input has %d features, model expects %d", len(x), m.Features())
	}
	if m.Quantized() {
		_, scores := m.packedPredictBatch([][]float64{x})
		first, second = packedTop2(scores)
		return first, second, nil
	}
	first, second = m.clf.PredictTop2(x)
	return first, second, nil
}

// Scores returns the cosine similarity of x with every class
// hypervector. On a quantized model the scores are the exact bipolar
// cosines agreement/D (both packed vectors have norm √D), so they live
// on the same [−1, 1] scale as the float path.
func (m *Model) Scores(x []float64) ([]float64, error) {
	if len(x) != m.Features() {
		return nil, fmt.Errorf("disthd: input has %d features, model expects %d", len(x), m.Features())
	}
	if m.Quantized() {
		_, agr := m.packedPredictBatch([][]float64{x})
		out := make([]float64, len(agr))
		for c, a := range agr {
			out[c] = float64(a) / float64(m.Dim())
		}
		return out, nil
	}
	return m.clf.Scores(x), nil
}

// checkBatch reports the first row of X whose width is not Features()
// and then the first label of y outside [0, Classes()), naming the row, so
// no batch entry point hands a ragged batch or a bad label to a kernel.
func (m *Model) checkBatch(X [][]float64, y []int) error {
	for i, x := range X {
		if len(x) != m.Features() {
			return fmt.Errorf("disthd: row %d has %d features, model expects %d", i, len(x), m.Features())
		}
	}
	for i, c := range y {
		if c < 0 || c >= m.Classes() {
			return fmt.Errorf("disthd: row %d has label %d outside [0,%d)", i, c, m.Classes())
		}
	}
	return nil
}

// PredictBatch classifies many samples at once (parallel across CPUs).
func (m *Model) PredictBatch(X [][]float64) ([]int, error) {
	if len(X) == 0 {
		return nil, nil
	}
	if err := m.checkBatch(X, nil); err != nil {
		return nil, err
	}
	if m.Quantized() {
		out, _ := m.packedPredictBatch(X)
		return out, nil
	}
	return m.clf.PredictBatch(mat.FromRows(X)), nil
}

// Evaluate returns classification accuracy over a labeled set.
func (m *Model) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) {
		return 0, fmt.Errorf("disthd: %d samples but %d labels", len(X), len(y))
	}
	if len(X) == 0 {
		return 0, fmt.Errorf("disthd: empty evaluation set")
	}
	pred, err := m.PredictBatch(X)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}

// Update performs one online learning step on a labeled sample: if the
// model's current prediction is wrong, the wrongly-winning class is
// weakened and the true class strengthened, each scaled by the sample's
// novelty (Algorithm 1 of the paper). It returns whether the pre-update
// prediction was already correct.
//
// Update is the on-device continual-learning primitive: a deployed edge
// model can keep adapting to drifting sensor statistics without a full
// retrain. Dimension regeneration does not occur online (it needs batch
// error statistics); schedule periodic re-training for that.
func (m *Model) Update(x []float64, label int) (wasCorrect bool, err error) {
	if m.Quantized() {
		return false, fmt.Errorf("disthd: quantized model is frozen; online updates need the f32 champion")
	}
	if len(x) != m.Features() {
		return false, fmt.Errorf("disthd: input has %d features, model expects %d", len(x), m.Features())
	}
	if label < 0 || label >= m.Classes() {
		return false, fmt.Errorf("disthd: label %d outside [0,%d)", label, m.Classes())
	}
	return m.clf.Update(x, label, m.clf.Cfg.LearningRate), nil
}

// TopKAccuracy returns the fraction of samples whose true label appears in
// the k most similar classes.
func (m *Model) TopKAccuracy(X [][]float64, y []int, k int) (float64, error) {
	if len(X) != len(y) || len(X) == 0 {
		return 0, fmt.Errorf("disthd: bad evaluation set (%d samples, %d labels)", len(X), len(y))
	}
	if err := m.checkBatch(X, y); err != nil {
		return 0, err
	}
	if m.Quantized() {
		_, scores := m.packedPredictBatch(X)
		classes := m.Classes()
		correct := 0
		for i := range X {
			s := scores[i*classes : (i+1)*classes]
			ys := s[y[i]]
			rank := 0
			for c, v := range s {
				if v > ys || (v == ys && c < y[i]) {
					rank++
				}
			}
			if rank < k {
				correct++
			}
		}
		return float64(correct) / float64(len(y)), nil
	}
	return m.clf.TopKAccuracy(mat.FromRows(X), y, k), nil
}

// DimensionSaliency returns, per hypervector dimension, the variance of
// the normalized class weights — the saliency signal NeuralHD regenerates
// by and DistHD uses as its over-elimination guard. Low values mark
// dimensions carrying little discriminative information; a downstream user
// can inspect it to choose a smaller deployment dimensionality.
func (m *Model) DimensionSaliency() []float64 { return m.clf.Model.Saliency() }

// ClassHypervector returns a copy of the learned hypervector for a class.
func (m *Model) ClassHypervector(class int) ([]float64, error) {
	if class < 0 || class >= m.Classes() {
		return nil, fmt.Errorf("disthd: class %d outside [0,%d)", class, m.Classes())
	}
	out := make([]float64, m.Dim())
	copy(out, m.clf.Model.Weights.Row(class))
	return out, nil
}
