package disthd

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mat"
)

// RetrainConfig controls a warm-start retrain (Model.Retrain,
// OnlineLearner.Retrain): how many train → score → regenerate rounds of the
// staged pipeline run over the feedback window. The zero value picks the
// documented defaults.
type RetrainConfig struct {
	// Iterations is the number of warm train+regenerate rounds (default 5 —
	// a window is small and the model starts warm, so a fraction of the
	// cold-start budget suffices).
	Iterations int
	// Seed drives the retrain's shuffle and regeneration streams; retrains
	// with different seeds explore different regeneration draws.
	Seed uint64
	// regenBoost multiplies the model's regeneration rate R for this retrain
	// when > 1 (capped so the boosted rate never exceeds 0.5): a severe drift
	// warrants redrawing more of the encoder, not just more epochs.
	// ScaleForSeverity sets it alongside the iteration budget.
	regenBoost float64
}

// withDefaults fills unset fields.
func (c RetrainConfig) withDefaults() RetrainConfig {
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WithAttempt returns a copy of c whose Seed is re-derived for the n-th
// retrain attempt (0-based): deterministic in (Seed, n), distinct across
// attempts, so every retrain in a sequence explores fresh shuffle and
// regeneration draws. OnlineLearner.BeginRetrain derives every round's
// seed through it.
func (c RetrainConfig) WithAttempt(n uint64) RetrainConfig {
	c.Seed += (n + 1) * 0x9e3779b97f4a7c15
	return c
}

// maxSeverityScale caps how far ScaleForSeverity may inflate a retrain
// budget: a catastrophic accuracy collapse triples the warm budget, never
// more — retrains must stay orders of magnitude cheaper than the drift
// timescale they compensate.
const maxSeverityScale = 3.0

// ScaleForSeverity returns a copy of c whose retrain budget grows with the
// measured drift severity (the accuracy drop below baseline, see
// DriftReport): with severity at or below threshold the config is returned
// unchanged, beyond it both the iteration budget and the regeneration rate
// scale linearly with severity/threshold, capped at 3×. A mild sag gets the
// cheap warm rerun; a collapse earns more epochs AND more redrawn encoder
// dimensions, because a collapsed class geometry needs new dimensions, not
// just re-fitted weights. Threshold <= 0 disables scaling.
func (c RetrainConfig) ScaleForSeverity(severity, threshold float64) RetrainConfig {
	if threshold <= 0 || severity <= threshold || math.IsNaN(severity) {
		return c
	}
	scale := severity / threshold
	if scale > maxSeverityScale {
		scale = maxSeverityScale
	}
	c = c.withDefaults()
	c.Iterations = int(math.Ceil(float64(c.Iterations) * scale))
	c.regenBoost = scale
	return c
}

// Retrain returns a NEW model warm-started from m and adapted to (X, y) by
// rerunning the staged regeneration pipeline: the class weights and encoder
// are deep-copied, then Iterations rounds of adaptive learning → dimension
// scoring → regeneration run over the window. m itself is never touched, so
// it can keep serving while the retrain runs — publish the returned model
// through serve.Swapper when it is ready (the two always have identical
// shape, which is exactly the Swapper's compatibility contract).
func (m *Model) Retrain(X [][]float64, y []int, cfg RetrainConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if m.Quantized() {
		return nil, fmt.Errorf("disthd: quantized model is frozen; retrain the f32 champion and re-quantize")
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("disthd: empty retrain window")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("disthd: %d samples but %d labels", len(X), len(y))
	}
	for i, row := range X {
		if len(row) != m.Features() {
			return nil, fmt.Errorf("disthd: retrain sample %d has %d features, model expects %d", i, len(row), m.Features())
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("disthd: non-finite feature %v at retrain sample %d, column %d", v, i, j)
			}
		}
	}

	cc := m.clf.Cfg
	cc.Iterations = cfg.Iterations
	cc.Seed = cfg.Seed
	if cfg.regenBoost > 1 {
		cc.RegenRate = math.Min(0.5, cc.RegenRate*cfg.regenBoost)
	}
	// A short warm run has no room for the cold-start plateau heuristics.
	cc.Patience = 0

	dup := m.clf.CloneDetached(cfg.Seed ^ 0x5e7a11)
	p, err := core.Resume(dup, mat.FromRows(X), y, cc)
	if err != nil {
		return nil, err
	}
	clf, stats := p.Run()
	// Effective dimensionality keeps accumulating across the model's
	// lifetime: D* = D + every regeneration it ever absorbed. A model that
	// came through Load carries no training Info, so fall back to its
	// physical dimensionality as the base.
	baseEffective := m.Info.EffectiveDim
	if baseEffective == 0 {
		baseEffective = m.Dim()
	}
	return &Model{
		clf:  clf,
		kind: m.kind,
		Info: TrainInfo{
			Iterations:         len(stats.Iters),
			RegeneratedDims:    m.Info.RegeneratedDims + stats.TotalRegenerated,
			EffectiveDim:       baseEffective + stats.TotalRegenerated,
			FinalTrainAccuracy: stats.FinalTrainAcc(),
		},
	}, nil
}

// OnlineConfig configures an OnlineLearner. The zero value picks the
// documented defaults.
type OnlineConfig struct {
	// Window bounds the labeled-feedback buffer the learner retrains from:
	// the most recent Window samples (default 512).
	Window int
	// RecentWindow is how many of the latest observations the windowed
	// accuracy estimate covers (default 64).
	RecentWindow int
	// DriftThreshold flags drift when the windowed accuracy falls this far
	// below the baseline accuracy measured right after the model was bound.
	// The zero value selects the default 0.15 — a literal threshold of 0
	// cannot be expressed; pass a small positive value (e.g. 0.001) for a
	// hair-trigger detector.
	DriftThreshold float64
	// HoldoutFraction is the fraction of the feedback window carved into a
	// stratified held-out slice — excluded from retrain data, used by the
	// champion/challenger Gate to score an incumbent against a freshly
	// retrained successor (SplitWindow documents the stratification). The
	// zero value selects the default 0.20; pass a negative value to disable
	// the holdout entirely (every sample trains, the gate has no evidence
	// and publishes unconditionally). Must stay below 1.
	HoldoutFraction float64
	// Retrain configures the warm retrain the learner runs over its window.
	Retrain RetrainConfig
}

// withDefaults fills unset fields and validates the rest.
func (c OnlineConfig) withDefaults() (OnlineConfig, error) {
	if c.Window == 0 {
		c.Window = 512
	}
	if c.RecentWindow == 0 {
		c.RecentWindow = 64
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.15
	}
	if c.HoldoutFraction == 0 {
		c.HoldoutFraction = 0.20
	}
	if c.HoldoutFraction < 0 {
		c.HoldoutFraction = 0
	}
	c.Retrain = c.Retrain.withDefaults()
	if c.Window < 1 || c.RecentWindow < 1 || c.DriftThreshold < 0 || c.HoldoutFraction >= 1 {
		return c, fmt.Errorf("disthd: invalid online config %+v", c)
	}
	return c, nil
}

// OnlineLearner closes the DistHD loop at serving time: it ingests labeled
// feedback into a bounded window, tracks windowed accuracy against the
// baseline measured when the model was bound, detects distribution drift,
// and — on demand — warm-retrains a successor model on the window by
// rerunning the staged regeneration pipeline (core encode → adapt → score →
// regenerate, via Model.Retrain).
//
// Observing feedback never mutates the bound model: the model may be
// serving traffic concurrently, and in-place weight updates would race with
// readers. Adaptation happens exclusively through retrain rounds
// (RetrainRound), which train deep copies and rebind the learner to the
// published one — Retrain and RetrainGated run a round inline, and
// serve.Learner runs the same round in the background and publishes
// through a Swapper with zero serving interruption.
//
// An OnlineLearner is not safe for concurrent use; callers serialize access
// (serve.Learner wraps it with a mutex; a round's training steps need no
// lock).
type OnlineLearner struct {
	m   *Model
	cfg OnlineConfig

	// Sliding feedback window.
	winX   []float64 // capacity Window × features, row-major
	winY   []int
	winLen int
	winPos int // next slot to overwrite

	// Windowed accuracy over the last RecentWindow observations. The label
	// ring mirrors the outcome ring so evicted observations can be removed
	// from the per-class tallies.
	recent      []bool
	recentLabel []int
	recentLen   int
	recentPos   int
	recentOK    int

	// Per-class tallies over the recent ring — the drift-attribution
	// substrate: clsRecentN[c]/clsRecentOK[c] count observations and correct
	// predictions whose TRUE label is c.
	clsRecentN  []int
	clsRecentOK []int

	// Baseline accuracy, frozen over the first RecentWindow observations
	// after the model was (re)bound, with the matching per-class tallies.
	obsSinceBind uint64
	baseOK       int
	baseN        int
	clsBaseN     []int
	clsBaseOK    []int

	observations uint64
	attempts     uint64
	retrains     uint64
	rejections   uint64
}

// NewOnlineLearner builds a learner bound to m.
func NewOnlineLearner(m *Model, cfg OnlineConfig) (*OnlineLearner, error) {
	if m == nil {
		return nil, fmt.Errorf("disthd: NewOnlineLearner needs a model")
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k := m.Classes()
	return &OnlineLearner{
		m:           m,
		cfg:         c,
		winX:        make([]float64, c.Window*m.Features()),
		winY:        make([]int, c.Window),
		recent:      make([]bool, c.RecentWindow),
		recentLabel: make([]int, c.RecentWindow),
		clsRecentN:  make([]int, k),
		clsRecentOK: make([]int, k),
		clsBaseN:    make([]int, k),
		clsBaseOK:   make([]int, k),
	}, nil
}

// Model returns the currently bound model.
func (l *OnlineLearner) Model() *Model { return l.m }

// Observe ingests one labeled feedback sample: the bound model classifies
// x, the outcome feeds the windowed-accuracy and drift estimates, and the
// sample joins the retrain window. It returns whether the prediction was
// correct. The bound model's weights are NOT updated (see the type comment).
func (l *OnlineLearner) Observe(x []float64, label int) (correct bool, err error) {
	if len(x) != l.m.Features() {
		return false, fmt.Errorf("disthd: feedback has %d features, model expects %d", len(x), l.m.Features())
	}
	if label < 0 || label >= l.m.Classes() {
		return false, fmt.Errorf("disthd: feedback label %d outside [0,%d)", label, l.m.Classes())
	}
	pred, err := l.m.Predict(x)
	if err != nil {
		return false, err
	}
	correct = pred == label

	// Accuracy bookkeeping, overall and per class (the true label's class
	// owns the observation — attribution asks "whose samples is the model
	// getting wrong", not "what is it mispredicting them as").
	l.observations++
	l.obsSinceBind++
	if l.baseN < l.cfg.RecentWindow {
		l.baseN++
		l.clsBaseN[label]++
		if correct {
			l.baseOK++
			l.clsBaseOK[label]++
		}
	}
	if l.recentLen == l.cfg.RecentWindow {
		old := l.recentLabel[l.recentPos]
		l.clsRecentN[old]--
		if l.recent[l.recentPos] {
			l.recentOK--
			l.clsRecentOK[old]--
		}
	} else {
		l.recentLen++
	}
	l.recent[l.recentPos] = correct
	l.recentLabel[l.recentPos] = label
	l.clsRecentN[label]++
	if correct {
		l.recentOK++
		l.clsRecentOK[label]++
	}
	l.recentPos = (l.recentPos + 1) % l.cfg.RecentWindow

	// Window admission: the sliding ring overwrites its oldest slot.
	q := l.m.Features()
	copy(l.winX[l.winPos*q:(l.winPos+1)*q], x)
	l.winY[l.winPos] = label
	l.winPos = (l.winPos + 1) % l.cfg.Window
	if l.winLen < l.cfg.Window {
		l.winLen++
	}
	return correct, nil
}

// Observations returns how many feedback samples the learner has ever seen.
func (l *OnlineLearner) Observations() uint64 { return l.observations }

// Retrains returns how many retrain rounds published a successor.
func (l *OnlineLearner) Retrains() uint64 { return l.retrains }

// WindowLen returns how many samples the retrain window currently holds.
func (l *OnlineLearner) WindowLen() int { return l.winLen }

// WindowAccuracy returns the model's accuracy over the last RecentWindow
// observations (NaN before any observation arrives).
func (l *OnlineLearner) WindowAccuracy() float64 {
	if l.recentLen == 0 {
		return math.NaN()
	}
	return float64(l.recentOK) / float64(l.recentLen)
}

// BaselineAccuracy returns the accuracy frozen over the first RecentWindow
// observations after the model was (re)bound (NaN before any arrive).
func (l *OnlineLearner) BaselineAccuracy() float64 {
	if l.baseN == 0 {
		return math.NaN()
	}
	return float64(l.baseOK) / float64(l.baseN)
}

// mature reports whether both accuracy estimates have matured since the
// model was bound: one RecentWindow of observations freezes the baseline,
// a second fills the recent ring.
func (l *OnlineLearner) mature() bool {
	return l.obsSinceBind >= uint64(2*l.cfg.RecentWindow) && l.baseN >= l.cfg.RecentWindow
}

// DriftDetected reports whether the windowed accuracy has fallen more than
// DriftThreshold below the baseline, with both estimates mature
// (2·RecentWindow observations since the model was bound).
func (l *OnlineLearner) DriftDetected() bool {
	return l.mature() && l.WindowAccuracy() < l.BaselineAccuracy()-l.cfg.DriftThreshold
}

// ClassDrift attributes drift to one class: how the model's accuracy on
// samples of this class moved between the post-bind baseline and the recent
// observation window.
type ClassDrift struct {
	// Class is the class index.
	Class int
	// BaselineAccuracy is the class's accuracy over the frozen post-bind
	// baseline (NaN when the class never appeared in it).
	BaselineAccuracy float64
	// WindowAccuracy is the class's accuracy over the recent observation
	// window (NaN when the class is absent from it).
	WindowAccuracy float64
	// Drop is BaselineAccuracy - WindowAccuracy when both are defined, and 0
	// otherwise — a class absent from either window cannot be attributed.
	Drop float64
	// Observations counts the class's samples in the recent window.
	Observations int
}

// DriftReport is a point-in-time attribution of drift: the overall
// accuracy drop plus a per-class breakdown identifying which classes'
// windowed accuracy sags. OnlineLearner.DriftReport produces it; the
// severity feeds RetrainConfig.ScaleForSeverity and the serving stats
// endpoint surfaces the per-class rows.
type DriftReport struct {
	// Drift mirrors DriftDetected at the time of the report.
	Drift bool
	// Severity is the overall accuracy drop below baseline, clamped to
	// >= 0. It stays 0 until both estimates are mature (the same
	// 2·RecentWindow guard DriftDetected applies): an immature drop is
	// sampling noise, and letting it through would hand a 3× severity-
	// scaled budget to a retrain that saw no real drift.
	Severity float64
	// BaselineAccuracy and WindowAccuracy are the overall estimates behind
	// Severity (NaN before any observation).
	BaselineAccuracy float64
	// WindowAccuracy is the overall accuracy over the recent window.
	WindowAccuracy float64
	// Classes holds one entry per class the model separates, indexed by
	// class.
	Classes []ClassDrift
}

// Worst returns the class with the largest positive accuracy Drop and that
// drop, or (-1, 0) when no class has sagged — the headline of the
// attribution.
func (r DriftReport) Worst() (class int, drop float64) {
	class = -1
	for _, c := range r.Classes {
		if c.Drop > drop {
			class, drop = c.Class, c.Drop
		}
	}
	if class == -1 {
		return -1, 0
	}
	return class, drop
}

// DriftReport returns the current drift attribution: overall severity plus
// per-class baseline-vs-window accuracy. Classes absent from a window carry
// NaN accuracy and a zero Drop (no evidence, no attribution).
func (l *OnlineLearner) DriftReport() DriftReport {
	rep := DriftReport{
		Drift:            l.DriftDetected(),
		BaselineAccuracy: l.BaselineAccuracy(),
		WindowAccuracy:   l.WindowAccuracy(),
		Classes:          make([]ClassDrift, len(l.clsRecentN)),
	}
	if d := rep.BaselineAccuracy - rep.WindowAccuracy; l.mature() && d > 0 {
		rep.Severity = d
	}
	for c := range rep.Classes {
		cd := ClassDrift{
			Class:            c,
			BaselineAccuracy: math.NaN(),
			WindowAccuracy:   math.NaN(),
			Observations:     l.clsRecentN[c],
		}
		if l.clsBaseN[c] > 0 {
			cd.BaselineAccuracy = float64(l.clsBaseOK[c]) / float64(l.clsBaseN[c])
		}
		if l.clsRecentN[c] > 0 {
			cd.WindowAccuracy = float64(l.clsRecentOK[c]) / float64(l.clsRecentN[c])
		}
		if l.clsBaseN[c] > 0 && l.clsRecentN[c] > 0 {
			cd.Drop = cd.BaselineAccuracy - cd.WindowAccuracy
		}
		rep.Classes[c] = cd
	}
	return rep
}

// Window returns a copy of the retrain window, oldest first.
func (l *OnlineLearner) Window() (X [][]float64, y []int) {
	X = make([][]float64, l.winLen)
	y = make([]int, l.winLen)
	for i := 0; i < l.winLen; i++ {
		q := l.m.Features()
		// In a full ring, winPos is the oldest slot.
		slot := i
		if l.winLen == l.cfg.Window {
			slot = (l.winPos + i) % l.cfg.Window
		}
		row := make([]float64, q)
		copy(row, l.winX[slot*q:(slot+1)*q])
		X[i] = row
		y[i] = l.winY[slot]
	}
	return X, y
}

// SplitWindow partitions the feedback window into a training slice and a
// stratified held-out slice: per class, a HoldoutFraction share of that
// class's samples (at least one when the class has two or more, none when
// it has exactly one — a lone sample is worth more as training data) goes
// to the holdout. The NEWEST samples of each class are held out,
// deliberately: the gate's decision target is the FUTURE stream, and under
// drift the future resembles the newest feedback far more than the window
// average — a holdout spread over the whole window would judge the
// incumbent partly on the old regime it was trained on and hand it a
// home-field advantage (false rejections, stalled adaptation). The judged
// challenger forfeits nothing in the end: on a passing verdict
// RetrainGated refits the published successor on the full window. The two
// slices are disjoint, cover the whole window, and are fresh copies; the
// holdout is empty when HoldoutFraction is disabled or the window is too
// small to spare anything.
func (l *OnlineLearner) SplitWindow() (trainX [][]float64, trainY []int, holdX [][]float64, holdY []int) {
	X, y := l.Window()
	if l.cfg.HoldoutFraction <= 0 || len(X) == 0 {
		return X, y, nil, nil
	}
	// Per-class totals and holdout quotas over the snapshot (window order
	// is oldest-first, so "the last quota[c] of class c" are its newest
	// samples).
	total := make([]int, l.m.Classes())
	for _, c := range y {
		total[c]++
	}
	quota := make([]int, l.m.Classes())
	for c, n := range total {
		q := int(l.cfg.HoldoutFraction * float64(n))
		if q == 0 && n >= 2 {
			q = 1
		}
		quota[c] = q
	}
	seen := make([]int, l.m.Classes())
	for i, c := range y {
		j := seen[c]
		seen[c]++
		if j >= total[c]-quota[c] {
			holdX = append(holdX, X[i])
			holdY = append(holdY, c)
		} else {
			trainX = append(trainX, X[i])
			trainY = append(trainY, c)
		}
	}
	return trainX, trainY, holdX, holdY
}

// Rejections returns how many retrain rounds ended with the challenger
// rejected by the gate (plain Retrain never rejects).
func (l *OnlineLearner) Rejections() uint64 { return l.rejections }

// bindable validates that m can replace the currently bound model.
func (l *OnlineLearner) bindable(m *Model) error {
	if m == nil {
		return fmt.Errorf("disthd: rebind needs a model")
	}
	if m.Features() != l.m.Features() || m.Dim() != l.m.Dim() || m.Classes() != l.m.Classes() {
		return fmt.Errorf("disthd: successor model shaped %d/%d/%d, learner bound to %d/%d/%d",
			m.Features(), m.Dim(), m.Classes(), l.m.Features(), l.m.Dim(), l.m.Classes())
	}
	return nil
}

// UpgradeModel rebinds the learner to a successor of identical shape
// WITHOUT resetting the accuracy baseline or drift state — for publishing
// an upgrade that is statistically equivalent to the bound model, such as
// the full-window refit behind an accepted challenger (same window, same
// seed, 25% more data). Re-freezing the baseline for such a model would
// only buy 2·RecentWindow observations of drift-detection dead time. For
// successors that genuinely change behavior, use SetModel.
func (l *OnlineLearner) UpgradeModel(m *Model) error {
	if err := l.bindable(m); err != nil {
		return err
	}
	l.m = m
	return nil
}

// SetModel rebinds the learner to a successor model of identical shape —
// called after a retrained or externally swapped model goes live. The
// feedback window is kept (its labels are still valid training data); the
// accuracy baseline and drift state reset, since they measured the old
// model.
func (l *OnlineLearner) SetModel(m *Model) error {
	if err := l.bindable(m); err != nil {
		return err
	}
	l.m = m
	l.obsSinceBind = 0
	l.baseOK, l.baseN = 0, 0
	l.recentLen, l.recentPos, l.recentOK = 0, 0, 0
	for c := range l.clsBaseN {
		l.clsBaseN[c], l.clsBaseOK[c] = 0, 0
		l.clsRecentN[c], l.clsRecentOK[c] = 0, 0
	}
	return nil
}

// RetrainRound is one retrain attempt, taken from an OnlineLearner by
// BeginRetrain: the champion it must beat, the window's training and
// held-out slices (SplitWindow), and the attempt's seed and drift-scaled
// budget. Its training steps read only that snapshot, so they run without
// holding the learner — serve.Learner trains in the background while
// feedback keeps arriving — and the learner records the outcome through
// Record. Retrain and RetrainGated run the same steps inline.
type RetrainRound struct {
	champion      *Model
	trainX, holdX [][]float64
	trainY, holdY []int
	cfg           RetrainConfig
}

// BeginRetrain takes the next retrain round: it counts the attempt and
// snapshots the bound model as the champion, the window split, and the
// attempt's seed (RetrainConfig.WithAttempt over the attempts before it)
// and budget (RetrainConfig.ScaleForSeverity), so repeated rounds explore
// fresh regeneration draws and a severe drift earns a deeper rerun.
func (l *OnlineLearner) BeginRetrain() (*RetrainRound, error) { return l.beginRetrain(true) }

// beginRetrain takes a round; without split its training slice is the whole
// window and its holdout is empty — all an ungated Retrain refits on, so
// the window is copied once.
func (l *OnlineLearner) beginRetrain(split bool) (*RetrainRound, error) {
	if l.winLen == 0 {
		return nil, fmt.Errorf("disthd: retrain with an empty feedback window")
	}
	r := &RetrainRound{
		champion: l.m,
		cfg: l.cfg.Retrain.WithAttempt(l.attempts).
			ScaleForSeverity(l.DriftReport().Severity, l.cfg.DriftThreshold),
	}
	l.attempts++
	if !split {
		r.trainX, r.trainY = l.Window()
		return r, nil
	}
	// SplitWindow never starves training: with HoldoutFraction < 1
	// (enforced by withDefaults) every class keeps at least one sample, so
	// a non-empty window always yields a non-empty training slice.
	r.trainX, r.trainY, r.holdX, r.holdY = l.SplitWindow()
	return r, nil
}

// Challenge trains the round's challenger on the training slice and judges
// it against the champion on the holdout through g. A nil g judges
// nothing: the verdict publishes without evidence, as an empty holdout
// would. force publishes whatever the verdict, which still reports the
// measured margins with Forced set; the challenger may go live when
// Publish or Forced holds.
func (r *RetrainRound) Challenge(g *Gate, force bool) (*Model, GateVerdict, error) {
	next, err := r.champion.Retrain(r.trainX, r.trainY, r.cfg)
	if err != nil {
		return nil, GateVerdict{}, err
	}
	v := GateVerdict{Publish: true}
	if g != nil {
		if v, err = g.Evaluate(r.champion, next, r.holdX, r.holdY); err != nil {
			return nil, GateVerdict{}, err
		}
	}
	v.Forced = force
	return next, v, nil
}

// Holdout returns how many samples the round held out of the challenger's
// training slice — when nonzero, an accepted challenger is followed by a
// Refit, so the deployed model does not forfeit that share of its data.
func (r *RetrainRound) Holdout() int { return len(r.holdX) }

// Refit warm-retrains the champion on (X, y), a fresh copy of the full
// window (OnlineLearner.Window), with the round's seed and budget. It is
// what an ungated Retrain publishes, so the gate changes WHICH rounds
// publish, never what a published retrain looks like.
func (r *RetrainRound) Refit(X [][]float64, y []int) (*Model, error) {
	return r.champion.Retrain(X, y, r.cfg)
}

// Record settles a round. A nil published counts a rejection: the
// champion stays bound. Otherwise published — the challenger or its
// refit — is bound with a fresh drift baseline (SetModel) and counted as a
// retrain; a refit that follows an already recorded challenger rebinds
// through UpgradeModel instead.
func (l *OnlineLearner) Record(published *Model) error {
	if published == nil {
		l.rejections++
		return nil
	}
	if err := l.SetModel(published); err != nil {
		return err
	}
	l.retrains++
	return nil
}

// Retrain runs one ungated round: it refits the champion on the whole
// window, rebinds the learner to the successor, and returns it. The
// previous model is left untouched, so a caller serving it can publish the
// successor atomically afterwards. RetrainGated puts a champion/challenger
// gate in front of the rebind.
func (l *OnlineLearner) Retrain() (*Model, error) {
	r, err := l.beginRetrain(false)
	if err != nil {
		return nil, err
	}
	next, err := r.Refit(r.trainX, r.trainY)
	if err != nil {
		return nil, err
	}
	if err := l.Record(next); err != nil {
		return nil, err
	}
	return next, nil
}

// RetrainGated runs one gated round: a challenger trains on the training
// slice of the window (SplitWindow) and publishes only if it passes the
// gate on the held-out slice. On a passing (or forced) verdict the
// champion is REFIT on the full window — holdout included, identical
// budget and seed, in window order — and the learner rebinds to the refit
// and returns it: the judged challenger's role was to prove the window
// trustworthy, and a deployed model should not forfeit the held-out share
// of its training data (the classic train/validate-then-refit pattern, at
// one extra warm retrain per publish). On rejection the incumbent stays
// bound, Rejections increments, and the returned model is nil. force
// publishes regardless of the verdict (which still reports the measured
// margins, with Forced set).
func (l *OnlineLearner) RetrainGated(g *Gate, force bool) (*Model, GateVerdict, error) {
	if g == nil {
		return nil, GateVerdict{}, fmt.Errorf("disthd: RetrainGated needs a gate")
	}
	r, err := l.BeginRetrain()
	if err != nil {
		return nil, GateVerdict{}, err
	}
	next, v, err := r.Challenge(g, force)
	if err != nil {
		return nil, GateVerdict{}, err
	}
	if !v.Publish && !v.Forced {
		return nil, v, l.Record(nil)
	}
	if r.Holdout() > 0 {
		if next, err = r.Refit(l.Window()); err != nil {
			return nil, v, err
		}
	}
	if err := l.Record(next); err != nil {
		return nil, v, err
	}
	return next, v, nil
}
