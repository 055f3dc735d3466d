package main

import (
	"fmt"
	"io"
	"strings"

	disthd "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/serve"
)

// driftgenOptions configures the closed-loop streaming drift benchmark.
type driftgenOptions struct {
	dataset      string
	dim          int
	scale        float64
	seed         uint64
	kinds        []dataset.DriftKind
	windows      int
	severity     float64
	fraction     float64
	labelNoise   float64
	learnWindow  int
	recentWindow int
	driftThresh  float64
	gateMargin   float64
	retrainIters int
	trainIters   int
	httpTarget   string
	wire         string // wire format for the live target: json or binary
	quantize     bool
	quick        bool
}

// quickDefaults shrinks the run to CI-smoke size.
func (o driftgenOptions) quickDefaults() driftgenOptions {
	o.scale = 0.15
	o.dim = 128
	o.windows = 4
	o.trainIters = 6
	o.retrainIters = 3
	o.learnWindow = 128
	o.recentWindow = 32
	if len(o.kinds) > 2 {
		o.kinds = o.kinds[:2]
	}
	return o
}

// parseDriftKinds parses a comma-separated list of drift kind names.
func parseDriftKinds(s string) ([]dataset.DriftKind, error) {
	var out []dataset.DriftKind
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "shift":
			out = append(out, dataset.DriftShift)
		case "scale":
			out = append(out, dataset.DriftScale)
		case "noise":
			out = append(out, dataset.DriftNoise)
		default:
			return nil, fmt.Errorf("unknown drift kind %q (want shift, scale or noise)", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no drift kinds given")
	}
	return out, nil
}

// driftKindName names a kind for the report.
func driftKindName(k dataset.DriftKind) string {
	switch k {
	case dataset.DriftShift:
		return "shift"
	case dataset.DriftScale:
		return "scale"
	case dataset.DriftNoise:
		return "noise"
	default:
		return "unknown"
	}
}

// driftSample is one materialized stream element: the drifted features, the
// TRUE label accuracy is judged against, and the label actually fed back
// through /learn — which differs when -drift-label-noise flips it,
// simulating a noisy teacher whose bad feedback a publication gate must
// survive.
type driftSample struct {
	x        []float64
	label    int
	fed      int
	severity float64
}

// materialize drains a DriftStream into a slice so every serving path
// (frozen, ungated adaptive, gated adaptive, live HTTP) consumes the
// IDENTICAL sample sequence — DriftNoise and label flips draw from RNGs, so
// streaming each path separately would compare different data.
func materialize(stream *dataset.DriftStream, classes int, labelNoise float64, seed uint64) []driftSample {
	flip := rng.New(seed)
	out := make([]driftSample, 0, stream.Len())
	for i := 0; ; i++ {
		x, label, ok := stream.Next()
		if !ok {
			break
		}
		s := driftSample{x: x, label: label, fed: label, severity: stream.Severity(i)}
		if labelNoise > 0 && flip.Float64() < labelNoise && classes > 1 {
			s.fed = (label + 1 + flip.Intn(classes-1)) % classes
		}
		out = append(out, s)
	}
	return out
}

// windowBounds splits n samples into `windows` evaluation windows; the last
// window absorbs the remainder.
func windowBounds(n, windows int) [][2]int {
	winLen := n / windows
	bounds := make([][2]int, windows)
	for w := 0; w < windows; w++ {
		bounds[w] = [2]int{w * winLen, (w + 1) * winLen}
	}
	bounds[windows-1][1] = n
	return bounds
}

// adaptiveResult carries one adaptive run's per-window measurements;
// counter fields are cumulative at each window boundary.
type adaptiveResult struct {
	accs     []float64
	retrains []uint64
	rejects  []uint64
}

// mean returns the mean windowed accuracy.
func (r adaptiveResult) mean() float64 {
	var s float64
	for _, a := range r.accs {
		s += a
	}
	return s / float64(len(r.accs))
}

// trainBase fits the clean starting model every serving path shares.
func trainBase(o driftgenOptions, train *dataset.Dataset, w io.Writer) (*disthd.Model, error) {
	cfg := disthd.DefaultConfig()
	cfg.Dim = o.dim
	cfg.Seed = o.seed
	cfg.Iterations = o.trainIters
	fmt.Fprintf(w, "driftgen: training %s model (D=%d, %d train samples, %d iterations)...\n",
		o.dataset, o.dim, train.N(), o.trainIters)
	trainX := make([][]float64, train.N())
	for i := range trainX {
		trainX[i] = train.X.Row(i)
	}
	return disthd.TrainWithConfig(trainX, train.Y, train.Classes, cfg)
}

// runDriftgen measures the value of drift-adaptive retraining closed-loop:
// one model is trained, then a drifting labeled stream (dataset.DriftStream
// over the test split, optionally with flipped feedback labels) is served
// three times — by the frozen model, by the ungated adaptive stack (every
// retrain publishes, the PR 3 behavior), and by the gated adaptive stack
// (challengers must beat the incumbent on the stratified holdout). Windowed
// accuracy for all three is reported per stream window, with the gate's
// accept/reject counts alongside. With -http the adaptive side is a LIVE
// disthd-serve process driven over HTTP instead (runDriftgenHTTP).
// In-flight retrains are awaited at window boundaries so the table is
// stable run-to-run; production serving has no such barrier.
func runDriftgen(o driftgenOptions, w io.Writer) error {
	if o.quick {
		o = o.quickDefaults()
	}
	train, test, err := dataset.Load(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	if o.windows < 1 || test.N()/o.windows < 1 {
		return fmt.Errorf("stream of %d samples cannot fill %d evaluation windows; lower -drift-windows or raise -drift-scale", test.N(), o.windows)
	}
	base, err := trainBase(o, train, w)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stream: %d samples, %d windows, severity 0→%.1f over %.0f%% of features, label noise %.0f%%\n",
		test.N(), o.windows, o.severity, 100*o.fraction, 100*o.labelNoise)

	if o.httpTarget != "" {
		return runDriftgenHTTP(o, base, test, w)
	}
	for _, kind := range o.kinds {
		if err := driftgenKind(o, kind, base, test, w); err != nil {
			return err
		}
	}
	return nil
}

// adaptiveRun streams the materialized samples through a fresh
// Batcher+Learner stack (gated or not) and measures windowed accuracy
// against the TRUE labels while feeding back the (possibly flipped) fed
// labels. Retrains are triggered at DETERMINISTIC stream positions — the
// drift flag is checked after every feed, attempts are rate-limited to one
// per recentWindow samples, and each is awaited inline — so the gated and
// ungated tables compare identical retrain schedules instead of goroutine
// scheduling noise, and the whole table is reproducible run-to-run.
// Production serving uses the background -auto-retrain path instead; the
// live-HTTP mode (-http) and the serve race tests exercise that one.
func adaptiveRun(o driftgenOptions, base *disthd.Model, samples []driftSample, bounds [][2]int, gated bool) (adaptiveResult, error) {
	var res adaptiveResult
	sw, err := serve.NewSwapper(base)
	if err != nil {
		return res, err
	}
	bat, err := serve.NewBatcher(sw, serve.Options{MaxBatch: 32, Replicas: 1})
	if err != nil {
		return res, err
	}
	defer bat.Close()
	learner, err := serve.NewLearner(sw, serve.LearnerOptions{
		Window:         o.learnWindow,
		RecentWindow:   o.recentWindow,
		DriftThreshold: o.driftThresh,
		GateMargin:     o.gateMargin,
		GateDisabled:   !gated,
		Iterations:     o.retrainIters,
		Seed:           o.seed,
	})
	if err != nil {
		return res, err
	}
	lastAttempt := -(1 << 30)
	spacing := o.recentWindow
	pos := 0
	for _, b := range bounds {
		ok := 0
		for _, s := range samples[b[0]:b[1]] {
			p, err := bat.Predict(s.x)
			if err != nil {
				return res, err
			}
			if p == s.label {
				ok++
			}
			fr, err := learner.Feed(s.x, s.fed)
			if err != nil {
				return res, err
			}
			if fr.Drift && pos-lastAttempt >= spacing {
				lastAttempt = pos
				before := learner.Snapshot().Retrains
				if started, _ := learner.Retrain(false); started {
					learner.Wait()
				}
				// A publish re-freezes the accuracy baseline, so the next
				// attempt waits for the full estimator span; a rejection
				// leaves the estimates running and may retry (with a fresh
				// regeneration seed) once half the span has turned over.
				if learner.Snapshot().Retrains > before {
					spacing = o.recentWindow
				} else {
					spacing = o.recentWindow / 2
				}
			}
			pos++
		}
		snap := learner.Snapshot()
		res.accs = append(res.accs, float64(ok)/float64(b[1]-b[0]))
		res.retrains = append(res.retrains, snap.Retrains)
		res.rejects = append(res.rejects, snap.GateRejects)
	}
	return res, nil
}

// frozenRun measures a non-adapting model's windowed accuracy over the
// stream — the control arm, also used for the frozen 1-bit tier (which is
// frozen by construction: quantized models refuse online updates).
func frozenRun(m *disthd.Model, samples []driftSample, bounds [][2]int) adaptiveResult {
	var res adaptiveResult
	for _, b := range bounds {
		ok := 0
		for _, s := range samples[b[0]:b[1]] {
			if p, err := m.Predict(s.x); err == nil && p == s.label {
				ok++
			}
		}
		res.accs = append(res.accs, float64(ok)/float64(b[1]-b[0]))
	}
	return res
}

// driftgenKind streams one DriftKind through the frozen, ungated-adaptive
// and gated-adaptive serving paths and prints the windowed comparison.
// With -quantize a frozen-1bit column rides along: the packed tier cannot
// adapt, so its decay under drift is exactly what an edge deployment
// trades for the packed footprint.
func driftgenKind(o driftgenOptions, kind dataset.DriftKind, base *disthd.Model, test *dataset.Dataset, w io.Writer) error {
	stream, err := dataset.NewDriftStream(test, kind, o.fraction, o.severity, o.seed^0xd21f7)
	if err != nil {
		return err
	}
	samples := materialize(stream, base.Classes(), o.labelNoise, o.seed^0xf11b)
	bounds := windowBounds(len(samples), o.windows)

	frozen := frozenRun(base, samples, bounds)
	var frozen1b adaptiveResult
	if o.quantize {
		q, err := base.Quantize1Bit()
		if err != nil {
			return err
		}
		frozen1b = frozenRun(q, samples, bounds)
	}
	ungated, err := adaptiveRun(o, base, samples, bounds, false)
	if err != nil {
		return err
	}
	gated, err := adaptiveRun(o, base, samples, bounds, true)
	if err != nil {
		return err
	}

	q1b := func(i int) string {
		if !o.quantize {
			return ""
		}
		return fmt.Sprintf(" %10.3f", frozen1b.accs[i])
	}
	fmt.Fprintf(w, "\ndrift kind: %s\n", driftKindName(kind))
	q1bHead := ""
	if o.quantize {
		q1bHead = fmt.Sprintf(" %10s", "froz-1bit")
	}
	fmt.Fprintf(w, "%8s %10s %10s%s %10s %10s %9s %8s %8s\n",
		"window", "severity", "frozen", q1bHead, "ungated", "gated", "ug-retr", "g-retr", "g-rej")
	for i, b := range bounds {
		fmt.Fprintf(w, "%8d %10.2f %10.3f%s %10.3f %10.3f %9d %8d %8d\n",
			i, samples[b[1]-1].severity, frozen.accs[i], q1b(i), ungated.accs[i], gated.accs[i],
			ungated.retrains[i], gated.retrains[i], gated.rejects[i])
	}
	verdict := "gated >= ungated"
	if gated.mean() < ungated.mean() {
		verdict = "GATED BELOW UNGATED"
	}
	q1bMean := ""
	if o.quantize {
		q1bMean = fmt.Sprintf(" %10.3f", frozen1b.mean())
	}
	fmt.Fprintf(w, "%8s %10s %10.3f%s %10.3f %10.3f   %s\n",
		"mean", "", frozen.mean(), q1bMean, ungated.mean(), gated.mean(), verdict)
	return nil
}
