package core

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
)

// PipelineStage identifies where a Pipeline is in its iteration cycle.
type PipelineStage int

const (
	// StageEncode: the raw batch has not been encoded yet.
	StageEncode PipelineStage = iota
	// StageAdapt: ready to run the adaptive-learning epochs of the current
	// iteration (Algorithm 1).
	StageAdapt
	// StageScore: adaptive epochs done; ready for top-2 bucketing and
	// dimension scoring (Algorithm 2).
	StageScore
	// StageRegenerate: dimensions scored; ready to regenerate the undesired
	// set and patch the encoded batch.
	StageRegenerate
	// StageDone: the iteration budget is exhausted or early stopping fired.
	StageDone
)

// String implements fmt.Stringer.
func (s PipelineStage) String() string {
	switch s {
	case StageEncode:
		return "encode"
	case StageAdapt:
		return "adapt"
	case StageScore:
		return "score"
	case StageRegenerate:
		return "regenerate"
	case StageDone:
		return "done"
	default:
		return "unknown"
	}
}

// Pipeline is the DistHD training loop decomposed into explicit,
// re-enterable stages — encode → adaptive epochs → top-2 bucketing/dim
// scoring → regenerate — with all loop state (iteration counter, early-stop
// and regeneration-freeze bookkeeping, the reusable model.Trainer) held in
// one resumable object. The same stages drive every training mode:
//
//   - One-shot training: Train is Run over a cold NewPipeline, and produces
//     bitwise-identical models to the historical monolith.
//   - Warm-start retraining: Resume wraps an already-trained Classifier and
//     reruns the regeneration stages over a new batch (the online-learning
//     retrain path behind disthd.OnlineLearner).
//   - Incremental/custom drives: callers may invoke the stage methods
//     directly — e.g. Score without Regenerate to audit dimension quality,
//     or extra Adapt rounds after the encoder froze.
//
// A Pipeline is single-goroutine; the model it trains is mutated in place
// (clone the Classifier first if the original must keep serving).
type Pipeline struct {
	enc     encoding.Regenerable
	m       *model.Model
	cfg     Config
	X       *mat.Dense
	y       []int
	H       *mat.Dense
	trainer *model.Trainer

	stage PipelineStage
	iter  int
	stats TrainStats
	cur   IterStats

	// Early-stopping and encoder-freeze bookkeeping (see Config.Patience
	// and Config.RegenPatience).
	best        float64
	stall       int
	regenBest   float64
	regenStall  int
	regenFrozen bool
}

// validateTrainInputs is the shared admission check for every pipeline
// construction path.
func validateTrainInputs(enc encoding.Regenerable, X *mat.Dense, y []int, classes int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if X.Rows != len(y) {
		return fmt.Errorf("disthd: %d samples but %d labels", X.Rows, len(y))
	}
	if X.Rows == 0 {
		return fmt.Errorf("disthd: empty training set")
	}
	if enc.Dim() != cfg.Dim {
		return fmt.Errorf("disthd: encoder dim %d != config dim %d", enc.Dim(), cfg.Dim)
	}
	if enc.Features() != X.Cols {
		return fmt.Errorf("disthd: encoder expects %d features, data has %d", enc.Features(), X.Cols)
	}
	for i, label := range y {
		if label < 0 || label >= classes {
			return fmt.Errorf("disthd: label %d at row %d outside [0,%d)", label, i, classes)
		}
	}
	return nil
}

// NewPipeline builds a cold-start pipeline: a zero-initialized model and a
// fresh trainer, positioned at the encode stage.
func NewPipeline(enc encoding.Regenerable, X *mat.Dense, y []int, classes int, cfg Config) (*Pipeline, error) {
	if err := validateTrainInputs(enc, X, y, classes, cfg); err != nil {
		return nil, err
	}
	m := model.New(classes, cfg.Dim)
	return newPipeline(enc, m, X, y, cfg), nil
}

// Resume builds a warm-start pipeline around an already-trained Classifier:
// the encoder and class weights are kept as-is and more train → score →
// regenerate rounds run over (X, y) — typically a recent window of labeled
// feedback. The Classifier's model and encoder are mutated in place; clone
// first (Classifier.CloneDetached) when the original must stay immutable,
// e.g. while it is being served.
func Resume(clf *Classifier, X *mat.Dense, y []int, cfg Config) (*Pipeline, error) {
	if clf == nil || clf.Model == nil || clf.Enc == nil {
		return nil, fmt.Errorf("disthd: Resume needs a trained classifier")
	}
	if cfg.Dim != clf.Model.Dim() {
		return nil, fmt.Errorf("disthd: config dim %d != classifier dim %d", cfg.Dim, clf.Model.Dim())
	}
	if err := validateTrainInputs(clf.Enc, X, y, clf.Model.Classes(), cfg); err != nil {
		return nil, err
	}
	return newPipeline(clf.Enc, clf.Model, X, y, cfg), nil
}

// newPipeline wires the shared pipeline state; inputs are pre-validated.
func newPipeline(enc encoding.Regenerable, m *model.Model, X *mat.Dense, y []int, cfg Config) *Pipeline {
	return &Pipeline{
		enc: enc,
		m:   m,
		cfg: cfg,
		X:   X,
		y:   y,
		// One Trainer across all iterations: the shuffle order, score
		// scratch, and RNG are reused, so the steady-state train/regenerate
		// loop allocates nothing beyond Algorithm 2's per-iteration
		// bookkeeping.
		trainer:   model.NewTrainer(m, cfg.Seed),
		stage:     StageEncode,
		best:      -1,
		regenBest: -1,
	}
}

// Done reports whether the pipeline has finished (budget exhausted or early
// stopping fired).
func (p *Pipeline) Done() bool { return p.stage == StageDone }

// mustBeAt panics when a stage method is called out of order — programmer
// error, matching the panic convention of the kernel layers.
func (p *Pipeline) mustBeAt(want PipelineStage, method string) {
	if p.stage != want {
		panic(fmt.Sprintf("disthd: Pipeline.%s called at stage %v, want %v", method, p.stage, want))
	}
}

// Encode runs the encode stage: the full raw batch becomes the encoded
// matrix H that every later stage reads and Regenerate patches in place.
func (p *Pipeline) Encode() {
	p.mustBeAt(StageEncode, "Encode")
	p.H = p.enc.EncodeBatch(p.X)
	p.stage = StageAdapt
}

// Adapt runs the adaptive-learning epochs of the current iteration
// (Algorithm 1) and returns the training accuracy of the final pass. It
// also performs the early-stop and encoder-freeze bookkeeping; when early
// stopping fires the iteration is sealed and the pipeline jumps straight to
// StageDone (a converged model is not perturbed by one final regeneration).
func (p *Pipeline) Adapt() float64 {
	p.mustBeAt(StageAdapt, "Adapt")
	tc := p.cfg.trainConfig(p.iter)
	p.trainer.Reseed(tc.Seed)
	var acc float64
	for e := 0; e < tc.Epochs; e++ {
		acc = p.trainer.Epoch(p.H, p.y, tc.LearningRate)
	}
	p.cur = IterStats{Iter: p.iter, TrainAcc: acc}

	// Early-stopping bookkeeping happens before regeneration so a converged
	// model is not perturbed by one final regeneration.
	if p.cfg.Patience > 0 {
		if acc > p.best+1e-9 {
			p.best = acc
			p.stall = 0
		} else {
			p.stall++
		}
		if p.stall >= p.cfg.Patience {
			p.stats.Iters = append(p.stats.Iters, p.cur)
			p.stats.Converged = true
			p.stage = StageDone
			return acc
		}
	}

	// Freeze the encoder once training accuracy plateaus (see
	// Config.RegenPatience).
	if p.cfg.RegenPatience > 0 && !p.regenFrozen {
		if acc > p.regenBest+1e-9 {
			p.regenBest = acc
			p.regenStall = 0
		} else {
			p.regenStall++
			if p.regenStall >= p.cfg.RegenPatience {
				p.regenFrozen = true
			}
		}
	}

	p.stage = StageScore
	return acc
}

// WillRegenerate reports whether the current iteration still regenerates
// dimensions: regeneration stops on the last iteration (the returned model
// must be trained under its final encoder) and once the encoder froze.
func (p *Pipeline) WillRegenerate() bool {
	return p.stage == StageScore && p.iter < p.cfg.Iterations-1 && !p.regenFrozen
}

// Score runs top-2 bucketing and Algorithm 2 dimension scoring over the
// encoded batch, recording the bucket census in the iteration's stats. Call
// only when WillRegenerate reports true (the monolithic loop never scored
// an iteration that could not regenerate); the undesired set feeds
// Regenerate.
func (p *Pipeline) Score() DimStats {
	p.mustBeAt(StageScore, "Score")
	ds := IdentifyUndesired(p.H, p.y, p.m, &p.cfg)
	p.cur.NumCorrect = ds.NumCorrect
	p.cur.NumPartial = ds.NumPartial
	p.cur.NumIncorrect = ds.NumIncorrect
	p.stage = StageRegenerate
	return ds
}

// SkipScore advances past the score and regenerate stages without touching
// the encoder — the path taken when WillRegenerate is false.
func (p *Pipeline) SkipScore() {
	p.mustBeAt(StageScore, "SkipScore")
	p.endIteration()
}

// Regenerate applies the regeneration stage for the undesired set produced
// by Score: redraw those encoder dimensions, patch exactly those columns of
// the encoded batch, zero the stale class weights at those coordinates, and
// (when Config.WarmStart is set) re-seed them from the class-conditional
// mean of the new columns. An empty undesired set is a no-op. The iteration
// is then sealed and the pipeline moves to the next one.
func (p *Pipeline) Regenerate(ds DimStats) {
	p.mustBeAt(StageRegenerate, "Regenerate")
	if len(ds.Undesired) > 0 {
		p.enc.Regenerate(ds.Undesired)
		p.enc.EncodeDimsBatch(p.X, ds.Undesired, p.H)
		p.m.ZeroDims(ds.Undesired)
		if p.cfg.WarmStart {
			p.m.WarmStartDims(p.H, p.y, ds.Undesired)
		}
		p.cur.Regenerated = len(ds.Undesired)
		p.stats.TotalRegenerated += len(ds.Undesired)
	}
	p.endIteration()
}

// endIteration seals the current iteration's stats and advances the
// iteration counter, finishing the pipeline when the budget is exhausted.
func (p *Pipeline) endIteration() {
	p.stats.Iters = append(p.stats.Iters, p.cur)
	p.iter++
	if p.iter >= p.cfg.Iterations {
		p.stage = StageDone
	} else {
		p.stage = StageAdapt
	}
}

// Step advances the pipeline by one full training iteration (encoding first
// when needed) and reports whether the pipeline is done.
func (p *Pipeline) Step() bool {
	if p.stage == StageEncode {
		p.Encode()
	}
	if p.stage == StageDone {
		return true
	}
	p.Adapt()
	if p.stage == StageDone {
		return true
	}
	if p.WillRegenerate() {
		p.Regenerate(p.Score())
	} else {
		p.SkipScore()
	}
	return p.stage == StageDone
}

// Run drives the pipeline to completion and returns the trained Classifier
// with its stats, exactly like Train.
func (p *Pipeline) Run() (*Classifier, *TrainStats) {
	for !p.Step() {
	}
	return p.Finish()
}

// Finish seals the run statistics (the paper's effective dimensionality
// D* = D + total regenerated) and returns the trained Classifier. It may be
// called mid-run to snapshot a partially trained classifier; the returned
// objects share state with the pipeline until it is abandoned.
func (p *Pipeline) Finish() (*Classifier, *TrainStats) {
	p.stats.EffectiveDim = p.cfg.Dim + p.stats.TotalRegenerated
	return &Classifier{Enc: p.enc, Model: p.m, Cfg: p.cfg}, &p.stats
}
