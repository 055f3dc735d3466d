package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
)

// LearnerOptions configures a Learner. The zero value picks the defaults
// documented on each field (window sizes default through
// disthd.OnlineConfig).
type LearnerOptions struct {
	// Window bounds the labeled-feedback buffer retrains draw from: a
	// sliding window of the most recent samples (default 512).
	Window int
	// RecentWindow is the span of the windowed accuracy estimate (default
	// 64). It is also the retrain floor: a retrain, automatic or through
	// Retrain (/retrain answers 409), needs at least this many samples in
	// the window, because retraining on a handful of samples would overfit
	// the class hypervectors to them.
	RecentWindow int
	// DriftThreshold flags drift when windowed accuracy falls this far
	// below the post-(re)bind baseline. The zero value selects the default
	// 0.15; a literal 0 cannot be expressed — use a small positive value
	// (e.g. 0.001) for a hair-trigger detector.
	DriftThreshold float64
	// Iterations is the warm-retrain budget in pipeline rounds (default 5).
	Iterations int
	// GateMargin is the holdout-accuracy lead a challenger needs to publish
	// (disthd.GateConfig.MinMargin; default 0 — a tie publishes).
	GateMargin float64
	// GateDisabled publishes every completed retrain unconditionally, the
	// pre-gate behavior — the control arm `hdbench -driftgen` measures the
	// gate against. The window is then not split: retrains train on every
	// sample. Otherwise the gate judges on the stratified holdout of the
	// newest samples (disthd.OnlineConfig's default HoldoutFraction, 0.20).
	GateDisabled bool
	// Auto starts a background retrain whenever feedback ingestion detects
	// drift (subject to the RecentWindow floor and Cooldown). Without it,
	// retrains run only on explicit Retrain calls (the /retrain endpoint).
	Auto bool
	// Cooldown is the minimum gap between drift-triggered retrains
	// (default 10s), bounding retrain churn when accuracy stays depressed —
	// e.g. while drift outpaces what the window can recover.
	Cooldown time.Duration
	// Seed drives the retrain's shuffle and regeneration streams (0 selects
	// disthd.RetrainConfig's default of 1).
	Seed uint64
}

// withDefaults fills unset fields.
func (o LearnerOptions) withDefaults() LearnerOptions {
	if o.RecentWindow == 0 {
		o.RecentWindow = 64
	}
	if o.Cooldown == 0 {
		o.Cooldown = 10 * time.Second
	}
	return o
}

// FeedResult reports what one feedback ingestion observed and triggered.
type FeedResult struct {
	// Correct is whether the served model predicted the feedback label.
	Correct bool `json:"correct"`
	// WindowAccuracy is the accuracy over the recent observation window.
	WindowAccuracy float64 `json:"window_accuracy"`
	// Drift is whether the learner currently flags distribution drift.
	Drift bool `json:"drift"`
	// RetrainStarted is whether this ingestion kicked off a background
	// retrain (Auto mode only).
	RetrainStarted bool `json:"retrain_started"`
}

// Learner wires a disthd.OnlineLearner into the serving stack: labeled
// feedback arrives through Feed (the /learn endpoint), retraining runs in a
// background goroutine strictly off the request path, and each successor
// model is published through the Batcher's Swapper — in-flight batches
// finish on the old weights, later ones classify with the new. The serving
// hot path is untouched: a Learner costs nothing until feedback arrives.
//
// Every retrain (drift-triggered or /retrain-forced) routes through a
// champion/challenger gate unless GateDisabled: the challenger trains on
// the window's training slice with a drift-severity-scaled budget, is
// scored against the serving incumbent on the stratified holdout
// (disthd.Gate), and publishes only on a passing margin. A rejected
// challenger is dropped — counted in the gate gauges and reported in
// /stats with its losing margin — and the incumbent keeps serving.
// /retrain?force=1 bypasses the verdict (the evaluation still runs and is
// reported).
//
// The round itself — window split, per-attempt seed, drift-scaled budget,
// challenger, verdict, refit, and the attempt/retrain/rejection counters —
// is disthd.OnlineLearner's (disthd.RetrainRound); the Learner schedules
// it, publishes its models, and keeps the serving-side gauges.
//
// Concurrency: Feed and Retrain may be called from any number of
// goroutines; the learner state is guarded by one mutex, while the retrain
// itself (the expensive part) runs outside it on the round's window
// snapshot. At most one retrain is in flight at a time.
type Learner struct {
	sw   *Swapper
	opts LearnerOptions
	gate *disthd.Gate // nil when GateDisabled
	// stallDeadline is how long a background retrain may run before Health
	// reports it wedged: 2 minutes, which only this package's tests
	// shorten. A wedged retrain holds the single retrain slot forever, so
	// the learner can no longer adapt — exactly what a cluster
	// coordinator's health probes need to see.
	stallDeadline time.Duration

	mu sync.Mutex // guards ol
	ol *disthd.OnlineLearner

	retraining   atomic.Bool
	retrainStart atomic.Int64  // wall-clock ns the in-flight retrain began, 0 when none
	feedback     atomic.Uint64 // mirrors ol.Observations(), so Health reads it without mu
	drifts       atomic.Uint64
	retrainErrs  atomic.Uint64
	rejectAt     atomic.Uint64              // 1 + feedback count at the last rejection
	lastGate     atomic.Pointer[GateResult] // last gate evaluation, any outcome
	lastReject   atomic.Pointer[GateResult] // last rejected challenger
	lastRetrain  atomic.Int64               // wall-clock ns of the last completed retrain
	lastDuration atomic.Int64               // duration ns of the last completed retrain
	lastAuto     atomic.Int64               // wall-clock ns of the last auto trigger
	wg           sync.WaitGroup
}

// onlineConfig maps resolved options onto the disthd.OnlineConfig the
// wrapped OnlineLearner runs under.
func (o LearnerOptions) onlineConfig() disthd.OnlineConfig {
	var holdout float64 // 0 selects disthd's default of 0.20
	if o.GateDisabled {
		// No gate, no reason to starve the retrain of holdout samples.
		holdout = -1
	}
	return disthd.OnlineConfig{
		Window:          o.Window,
		RecentWindow:    o.RecentWindow,
		DriftThreshold:  o.DriftThreshold,
		HoldoutFraction: holdout,
		Retrain:         disthd.RetrainConfig{Iterations: o.Iterations, Seed: o.Seed},
	}
}

// NewLearner builds a Learner feeding successors into sw, starting from the
// model sw currently serves.
func NewLearner(sw *Swapper, opts LearnerOptions) (*Learner, error) {
	if sw == nil {
		return nil, fmt.Errorf("serve: NewLearner needs a swapper")
	}
	o := opts.withDefaults()
	ol, err := disthd.NewOnlineLearner(sw.Current(), o.onlineConfig())
	if err != nil {
		return nil, err
	}
	l := &Learner{sw: sw, opts: o, ol: ol, stallDeadline: 2 * time.Minute}
	if !o.GateDisabled {
		l.gate = disthd.NewGate(disthd.GateConfig{MinMargin: o.GateMargin})
	}
	return l, nil
}

// Feed ingests one labeled feedback sample: the served model's verdict
// feeds the windowed accuracy and drift detector, and the sample joins the
// retrain window. In Auto mode a detected drift starts a background retrain
// (at most one in flight, rate-limited by Cooldown).
func (l *Learner) Feed(x []float64, label int) (FeedResult, error) {
	l.mu.Lock()
	if err := l.bindServing(); err != nil {
		l.mu.Unlock()
		return FeedResult{}, err
	}
	correct, err := l.ol.Observe(x, label)
	if err != nil {
		l.mu.Unlock()
		return FeedResult{}, err
	}
	res := FeedResult{
		Correct:        correct,
		WindowAccuracy: l.ol.WindowAccuracy(),
		Drift:          l.ol.DriftDetected(),
		RetrainStarted: false,
	}
	windowLen := l.ol.WindowLen()
	l.mu.Unlock()

	l.feedback.Add(1)
	if res.Drift {
		l.drifts.Add(1)
		if l.opts.Auto && windowLen >= l.opts.RecentWindow {
			res.RetrainStarted = l.startAutoRetrain()
		}
	}
	return res, nil
}

// bindServing rebinds the learner to the model actually serving, which an
// external /swap may have published since the learner last looked: feedback
// is judged against it and a retrain round takes it as the champion, so a
// round never retrains a displaced model and overwrites the operator's swap
// with its successor. The caller holds mu.
func (l *Learner) bindServing() error {
	if cur := l.sw.Current(); cur != l.ol.Model() {
		return l.ol.SetModel(cur)
	}
	return nil
}

// startAutoRetrain is startRetrain behind the drift cooldown. The cooldown
// clock only advances when a retrain actually launches — a trigger that
// loses to an in-flight retrain does not consume the cooldown, so the next
// drifted Feed after that retrain finishes can fire immediately.
func (l *Learner) startAutoRetrain() bool {
	// Rejection backoff: a rejected challenger means the window's evidence
	// does not support publishing — retrying before that evidence has
	// materially changed only burns retrain cycles re-judging the same
	// window (and, on a small host, steals them from serving). Wait for a
	// full RecentWindow of fresh feedback after a rejection (the windowed
	// accuracy estimate has then completely turned over) before the next
	// drift-triggered attempt; a manual /retrain is never held back.
	if l.inRejectionBackoff() {
		return false
	}
	// A quantized champion is frozen: retraining it is an error by
	// construction (disthd.Model.Retrain refuses), so a drift flag while
	// the 1-bit tier serves must not burn the retrain slot. The operator
	// swaps the f32 champion back in (or retrains it out of band) first.
	if l.sw.Current().Quantized() {
		return false
	}
	now := time.Now().UnixNano()
	if now-l.lastAuto.Load() < l.opts.Cooldown.Nanoseconds() {
		return false
	}
	if !l.startRetrain(false) {
		return false
	}
	l.lastAuto.Store(now)
	return true
}

// Retrain starts a background retrain over the current window. It returns
// false without starting one when a retrain is already in flight, and an
// error when the window holds fewer than RecentWindow samples. force
// publishes the challenger even when the gate's verdict is reject — the
// operator's escape hatch (/retrain?force=1) for when the holdout itself
// is suspect.
func (l *Learner) Retrain(force bool) (started bool, err error) {
	if l.sw.Current().Quantized() {
		return false, fmt.Errorf("serve: the serving model is 1-bit quantized and frozen; swap the f32 champion back in to retrain")
	}
	l.mu.Lock()
	n := l.ol.WindowLen()
	l.mu.Unlock()
	if n < l.opts.RecentWindow {
		return false, fmt.Errorf("serve: retrain window holds %d samples, need %d", n, l.opts.RecentWindow)
	}
	return l.startRetrain(force), nil
}

// holdout returns the holdout slice of the current feedback window, the
// evidence POST /quantize judges a 1-bit successor on.
func (l *Learner) holdout() ([][]float64, []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _, holdX, holdY := l.ol.SplitWindow()
	return holdX, holdY
}

// gateResult reports a verdict in the /stats shape (Published unset).
func gateResult(v disthd.GateVerdict) *GateResult {
	return &GateResult{
		Passed:             v.Publish,
		Forced:             v.Forced,
		ChampionAccuracy:   v.ChampionAccuracy,
		ChallengerAccuracy: v.ChallengerAccuracy,
		Margin:             v.Margin,
		HoldoutSize:        v.HoldoutSize,
	}
}

// startRetrain claims the single retrain slot and launches the worker.
func (l *Learner) startRetrain(force bool) bool {
	if !l.retraining.CompareAndSwap(false, true) {
		return false
	}
	l.retrainStart.Store(time.Now().UnixNano())
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer l.retraining.Store(false)
		defer l.retrainStart.Store(0)
		l.runRetrain(force)
	}()
	return true
}

// inRejectionBackoff reports whether the learner is still sitting out the
// post-rejection backoff: a RecentWindow of fresh feedback must arrive
// after a rejected challenger before the next auto retrain.
func (l *Learner) inRejectionBackoff() bool {
	at := l.rejectAt.Load()
	return at > 0 && l.feedback.Load()-(at-1) < uint64(l.opts.RecentWindow)
}

// LearnerHealth is the learner-side health verdict /healthz folds in: the
// learner is Degraded while it cannot adapt — sitting out the
// post-rejection backoff, or with a background retrain wedged past its
// stall deadline of 2 minutes (the single retrain slot is then held
// forever).
type LearnerHealth struct {
	// Degraded is the overall verdict: any reason below.
	Degraded bool `json:"degraded"`
	// RejectionBackoff is whether a rejected challenger has the auto
	// retrain sitting out fresh feedback.
	RejectionBackoff bool `json:"rejection_backoff"`
	// RetrainWedged is whether the in-flight retrain has exceeded the stall
	// deadline.
	RetrainWedged bool `json:"retrain_wedged"`
	// Reasons names each active degradation for the /healthz payload.
	Reasons []string `json:"reasons,omitempty"`
}

// Health reports whether the learner is currently impaired. It never
// blocks on the learner mutex, so a wedged retrain cannot wedge the
// health probe that is supposed to detect it.
func (l *Learner) Health() LearnerHealth {
	var h LearnerHealth
	if l.inRejectionBackoff() {
		h.RejectionBackoff = true
		h.Reasons = append(h.Reasons, "learner in post-rejection backoff")
	}
	if start := l.retrainStart.Load(); start > 0 && l.retraining.Load() {
		if age := time.Since(time.Unix(0, start)); age > l.stallDeadline {
			h.RetrainWedged = true
			h.Reasons = append(h.Reasons,
				fmt.Sprintf("retrain wedged: running %s, stall deadline %s", age.Round(time.Second), l.stallDeadline))
		}
	}
	h.Degraded = h.RejectionBackoff || h.RetrainWedged
	return h
}

// runRetrain runs one disthd.RetrainRound in the background: take the
// round under the lock, with the serving model as its champion, train and
// judge the challenger outside it, and only on a passing (or forced)
// verdict publish through the Swapper and record the retrain. Requests
// keep flowing the whole time; a rejected challenger is recorded and
// dropped without ever touching the Swapper.
func (l *Learner) runRetrain(force bool) {
	l.mu.Lock()
	err := l.bindServing()
	var round *disthd.RetrainRound
	if err == nil {
		round, err = l.ol.BeginRetrain()
	}
	l.mu.Unlock()
	if err != nil {
		l.retrainErrs.Add(1)
		return
	}

	start := time.Now()
	next, v, err := round.Challenge(l.gate, force)
	if err != nil {
		l.retrainErrs.Add(1)
		return
	}
	var res *GateResult
	if l.gate != nil {
		res = gateResult(v)
		if !v.Publish && !v.Forced {
			l.lastGate.Store(res)
			l.lastReject.Store(res)
			l.mu.Lock()
			_ = l.ol.Record(nil) // recording a rejection cannot fail
			l.mu.Unlock()
			l.rejectAt.Store(l.feedback.Load() + 1)
			return
		}
	}
	published := l.publish(next)
	if res != nil {
		// A challenger that never served keeps Published false, so the
		// gate accepts (the recorded retrains) match models that went live.
		res.Published = published
		l.lastGate.Store(res)
	}
	if !published {
		return
	}
	// The retrain gauges are recorded at the stage-one publish: the
	// successor is serving from this moment, whatever becomes of the refit
	// upgrade below (a failed refit adds a retrain error but cannot
	// un-publish the challenger or corrupt the completion record).
	l.lastDuration.Store(int64(time.Since(start)))
	l.lastRetrain.Store(time.Now().UnixNano())
	if round.Holdout() == 0 {
		return
	}
	// The accepted challenger is already serving; now refit the champion on
	// the FULL window and publish the upgrade behind it (see
	// disthd.RetrainRound.Refit). Publishing the challenger first keeps the
	// gate from costing adaptation latency: traffic runs on adapted weights
	// while the refit trains. The full window is snapshotted only now —
	// rejected retrains never pay for the copy — so the refit trains on the
	// freshest window (identical to the round's snapshot whenever no
	// feedback arrived in between, as in the deterministic benchmark).
	l.mu.Lock()
	fullX, fullY := l.ol.Window()
	l.mu.Unlock()
	full, err := round.Refit(fullX, fullY)
	if err != nil {
		l.retrainErrs.Add(1)
		return
	}
	if !l.publishUpgrade(next, full) {
		return
	}
	// Refresh the gauges so they cover the upgrade too.
	l.lastDuration.Store(int64(time.Since(start)))
	l.lastRetrain.Store(time.Now().UnixNano())
}

// publishUpgrade swaps the full-window refit in behind the stage-one
// challenger, but ONLY if that challenger is still what is serving
// (Swapper.SwapIfCurrent — a compare-and-swap, so even an operator /swap
// landing in the same instant wins): silently replacing an externally
// published model (and inheriting drift state measured against it) would
// discard an acknowledged operator action and corrupt the baseline. An
// abandoned upgrade is not an error; the accepted challenger already
// served its purpose.
func (l *Learner) publishUpgrade(expected, full *disthd.Model) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	swapped, err := l.sw.SwapIfCurrent(expected, full)
	if err != nil {
		l.retrainErrs.Add(1)
		return false
	}
	if !swapped {
		return false
	}
	if err := l.ol.UpgradeModel(full); err != nil {
		l.retrainErrs.Add(1)
		return false
	}
	return true
}

// publish swaps next into serving and records it with the learner as the
// round's retrain (rebinding with a fresh accuracy baseline — the
// successor behaves differently from what the estimates measured),
// atomically with respect to Feed (whose external-swap rebind check would
// otherwise race the two steps). A false return means the swapper was
// closed around us or the successor is somehow misshaped — both counted
// as retrain errors (shape mismatches cannot happen on this path: Retrain
// preserves shape).
func (l *Learner) publish(next *disthd.Model) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sw.Swap(next); err != nil {
		l.retrainErrs.Add(1)
		return false
	}
	if err := l.ol.Record(next); err != nil {
		l.retrainErrs.Add(1)
		return false
	}
	return true
}

// Wait blocks until no retrain is in flight. serve/registry calls it,
// outside its lock, to settle the learner of a tenant it dropped, so no
// retrain goroutine outlives the tenant's removal or the registry's Close.
// The caller must make sure no Feed or Retrain can start a new retrain
// while it waits.
func (l *Learner) Wait() { l.wg.Wait() }

// LearnerSnapshot is a point-in-time copy of the learner gauges, embedded
// in the /stats payload when a learner is attached.
type LearnerSnapshot struct {
	// Feedback counts labeled samples ingested through Feed.
	Feedback uint64 `json:"feedback"`
	// WindowLen is how many samples the retrain window holds.
	WindowLen int `json:"window_len"`
	// WindowAccuracy is the served model's accuracy over the recent
	// observation window (0 before any feedback).
	WindowAccuracy float64 `json:"window_accuracy"`
	// BaselineAccuracy is the accuracy frozen right after the serving model
	// was last (re)bound (0 before any feedback).
	BaselineAccuracy float64 `json:"baseline_accuracy"`
	// Drift is whether drift is currently flagged.
	Drift bool `json:"drift"`
	// DriftEvents counts feedback ingestions that observed a drift flag.
	DriftEvents uint64 `json:"drift_events"`
	// DriftSeverity is the overall accuracy drop below the baseline,
	// clamped to >= 0 — what the retrain budget scales by.
	DriftSeverity float64 `json:"drift_severity"`
	// ClassAccuracy attributes drift per class: baseline vs window accuracy
	// and the drop, for every class the served model separates.
	ClassAccuracy []ClassAccuracy `json:"class_accuracy,omitempty"`
	// Retraining is whether a background retrain is in flight.
	Retraining bool `json:"retraining"`
	// Degraded mirrors Learner.Health: the learner currently cannot
	// adapt (same verdict /healthz reports).
	Degraded bool `json:"degraded"`
	// RejectionBackoff is whether the auto retrain is sitting out the
	// post-rejection backoff.
	RejectionBackoff bool `json:"rejection_backoff"`
	// RetrainWedged is whether the in-flight retrain exceeded the stall
	// deadline.
	RetrainWedged bool `json:"retrain_wedged"`
	// Retrains counts completed (published) retrains.
	Retrains uint64 `json:"retrains"`
	// RetrainErrors counts retrains that failed before publishing.
	RetrainErrors uint64 `json:"retrain_errors"`
	// GateEnabled is whether retrains route through the champion/challenger
	// gate.
	GateEnabled bool `json:"gate_enabled"`
	// GateAccepts counts challengers the gate published (forced publishes
	// included): Retrains when the gate is enabled, else 0.
	GateAccepts uint64 `json:"gate_accepts"`
	// GateRejects counts challengers the gate dropped; the incumbent kept
	// serving through each.
	GateRejects uint64 `json:"gate_rejects"`
	// LastGate is the most recent gate evaluation, whatever its outcome
	// (nil before the first gated retrain).
	LastGate *GateResult `json:"last_gate,omitempty"`
	// LastRejection is the most recent rejected challenger with its losing
	// margin (nil while no challenger has been rejected).
	LastRejection *GateResult `json:"last_rejection,omitempty"`
	// LastRetrainMs is the duration of the last completed retrain.
	LastRetrainMs float64 `json:"last_retrain_ms"`
	// LastRetrainUnix is the wall-clock second the last retrain published
	// (0 when none has).
	LastRetrainUnix int64 `json:"last_retrain_unix"`
}

// jsonNum flattens the NaN of an empty estimator to 0 — JSON has no NaN.
func jsonNum(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// Snapshot returns the current learner gauges.
func (l *Learner) Snapshot() LearnerSnapshot {
	l.mu.Lock()
	winLen := l.ol.WindowLen()
	rep := l.ol.DriftReport()
	retrains, rejects := l.ol.Retrains(), l.ol.Rejections()
	l.mu.Unlock()
	var accepts uint64
	if l.gate != nil {
		accepts = retrains
	}
	classes := make([]ClassAccuracy, len(rep.Classes))
	for i, c := range rep.Classes {
		classes[i] = ClassAccuracy{
			Class:            c.Class,
			BaselineAccuracy: jsonNum(c.BaselineAccuracy),
			WindowAccuracy:   jsonNum(c.WindowAccuracy),
			Drop:             c.Drop,
			Observations:     c.Observations,
		}
	}
	var lastUnix int64
	if ns := l.lastRetrain.Load(); ns > 0 {
		lastUnix = ns / 1e9
	}
	health := l.Health()
	return LearnerSnapshot{
		Feedback:         l.feedback.Load(),
		WindowLen:        winLen,
		WindowAccuracy:   jsonNum(rep.WindowAccuracy),
		BaselineAccuracy: jsonNum(rep.BaselineAccuracy),
		Drift:            rep.Drift,
		DriftEvents:      l.drifts.Load(),
		DriftSeverity:    rep.Severity,
		ClassAccuracy:    classes,
		Retraining:       l.retraining.Load(),
		Degraded:         health.Degraded,
		RejectionBackoff: health.RejectionBackoff,
		RetrainWedged:    health.RetrainWedged,
		Retrains:         retrains,
		RetrainErrors:    l.retrainErrs.Load(),
		GateEnabled:      l.gate != nil,
		GateAccepts:      accepts,
		GateRejects:      rejects,
		LastGate:         l.lastGate.Load(),
		LastRejection:    l.lastReject.Load(),
		LastRetrainMs:    float64(l.lastDuration.Load()) / 1e6,
		LastRetrainUnix:  lastUnix,
	}
}
