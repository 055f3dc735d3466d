package disthd

import (
	"math"
	"testing"
)

func TestScaleForSeverity(t *testing.T) {
	base := RetrainConfig{Iterations: 4, Seed: 9}
	cases := []struct {
		name      string
		severity  float64
		threshold float64
		wantIters int
		wantBoost float64
	}{
		{"below threshold", 0.05, 0.10, 4, 0},
		{"at threshold", 0.10, 0.10, 4, 0},
		{"double", 0.20, 0.10, 8, 2},
		{"capped at 3x", 0.90, 0.10, 12, 3},
		{"threshold disabled", 0.90, 0, 4, 0},
		{"nan severity", math.NaN(), 0.10, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := base.ScaleForSeverity(tc.severity, tc.threshold)
			if got.Iterations != tc.wantIters {
				t.Fatalf("iterations %d, want %d", got.Iterations, tc.wantIters)
			}
			if got.regenBoost != tc.wantBoost {
				t.Fatalf("regen boost %v, want %v", got.regenBoost, tc.wantBoost)
			}
			if got.Seed != base.Seed {
				t.Fatalf("scaling changed the seed: %d", got.Seed)
			}
		})
	}
}

// TestRegenBoostWidensRetrain pins that a boosted retrain regenerates more
// dimensions than the unboosted one on the same window.
func TestRegenBoostWidensRetrain(t *testing.T) {
	m, _, test := onlineFixture(t, 11)
	cfg := RetrainConfig{Iterations: 3, Seed: 5}
	plain, err := m.Retrain(test.X, test.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.regenBoost = 3
	boosted, err := m.Retrain(test.X, test.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dPlain := plain.Info.RegeneratedDims - m.Info.RegeneratedDims
	dBoost := boosted.Info.RegeneratedDims - m.Info.RegeneratedDims
	if dBoost <= dPlain {
		t.Fatalf("boost regenerated %d dims, plain %d — boost must widen the redraw", dBoost, dPlain)
	}
}

// observeRow feeds one synthetic labeled sample whose leading feature
// uniquely identifies it, so split-disjointness can be checked by value.
func observeRow(t *testing.T, l *OnlineLearner, id int, label int) {
	t.Helper()
	x := make([]float64, l.Model().Features())
	x[0] = float64(id)
	for j := 1; j < len(x); j++ {
		x[j] = float64((id+j)%7) * 0.25
	}
	if _, err := l.Observe(x, label); err != nil {
		t.Fatal(err)
	}
}

func TestSplitWindowStratified(t *testing.T) {
	m, _, _ := onlineFixture(t, 12)
	k := m.Classes()
	cases := []struct {
		name     string
		labels   []int // fed in order; index is the sample id
		holdout  float64
		wantHold int
	}{
		{"single-class window", []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 0.2, 2},
		{"two per class", []int{0, 0, 1, 1, 2, 2}, 0.2, 3},
		{"holdout smaller than class count", []int{0, 1, 2, 3, 4, 5}, 0.2, 0},
		{"lone samples keep training", []int{0, 0, 0, 0, 0, 1}, 0.25, 1},
		{"disabled", []int{0, 0, 1, 1}, -1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := NewOnlineLearner(m, OnlineConfig{Window: 64, RecentWindow: 8, HoldoutFraction: tc.holdout})
			if err != nil {
				t.Fatal(err)
			}
			for id, label := range tc.labels {
				observeRow(t, l, id, label)
			}
			trainX, trainY, holdX, holdY := l.SplitWindow()
			if len(holdX) != tc.wantHold {
				t.Fatalf("holdout sized %d, want %d", len(holdX), tc.wantHold)
			}
			if len(trainX)+len(holdX) != len(tc.labels) {
				t.Fatalf("split covers %d+%d samples, window holds %d",
					len(trainX), len(holdX), len(tc.labels))
			}
			// Disjointness and coverage: every sample id appears exactly once
			// across the two slices, with its own label.
			seen := make(map[int]bool)
			check := func(X [][]float64, y []int) {
				for i, row := range X {
					id := int(row[0])
					if seen[id] {
						t.Fatalf("sample %d appears in both slices", id)
					}
					seen[id] = true
					if y[i] != tc.labels[id] {
						t.Fatalf("sample %d carries label %d, fed %d", id, y[i], tc.labels[id])
					}
				}
			}
			check(trainX, trainY)
			check(holdX, holdY)
			if len(seen) != len(tc.labels) {
				t.Fatalf("split lost samples: %d of %d", len(seen), len(tc.labels))
			}
			// Per-class holdout quotas: floor(h·n) with the ≥2 promotion.
			holdPerClass := make([]int, k)
			for _, c := range holdY {
				holdPerClass[c]++
			}
			totals := make([]int, k)
			for _, c := range tc.labels {
				totals[c]++
			}
			for c := 0; c < k; c++ {
				want := int(math.Max(0, tc.holdout) * float64(totals[c]))
				if want == 0 && totals[c] >= 2 && tc.holdout > 0 {
					want = 1
				}
				if holdPerClass[c] != want {
					t.Fatalf("class %d holds out %d, want %d", c, holdPerClass[c], want)
				}
			}
		})
	}
}

func TestDriftReportAttribution(t *testing.T) {
	m, _, test := onlineFixture(t, 13)
	l, err := NewOnlineLearner(m, OnlineConfig{Window: 256, RecentWindow: 32, DriftThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the best-represented class as the victim; every other observed
	// class keeps clean feedback, so only the victim's accuracy can sag.
	counts := make([]int, m.Classes())
	for _, c := range test.Y {
		counts[c]++
	}
	victim := 0
	for c, n := range counts {
		if n > counts[victim] {
			victim = c
		}
	}
	var victimX [][]float64
	for i, x := range test.X {
		if test.Y[i] == victim {
			victimX = append(victimX, x)
		}
	}
	if len(victimX) < 8 {
		t.Fatalf("fixture has only %d samples of class %d", len(victimX), victim)
	}

	// Clean phase: establish the per-class baselines.
	for i := 0; i < 64; i++ {
		if _, err := l.Observe(test.X[i%len(test.X)], test.Y[i%len(test.Y)]); err != nil {
			t.Fatal(err)
		}
	}
	rep := l.DriftReport()
	if rep.Drift {
		t.Fatalf("drift flagged on clean data: %+v", rep)
	}
	if len(rep.Classes) != m.Classes() {
		t.Fatalf("report covers %d classes, model has %d", len(rep.Classes), m.Classes())
	}

	// Severely shift ONLY the victim's samples: the drop must be attributed
	// to the victim, not to the classes still receiving clean feedback.
	for i := 0; i < 32; i++ {
		x := shiftRow(victimX[i%len(victimX)], 6.0)
		if _, err := l.Observe(x, victim); err != nil {
			t.Fatal(err)
		}
	}
	rep = l.DriftReport()
	vd := rep.Classes[victim]
	if vd.Observations == 0 {
		t.Fatal("victim class has no recent observations")
	}
	if !(vd.Drop > 0) {
		t.Fatalf("victim class drop %v, want > 0 (report %+v)", vd.Drop, rep)
	}
	worst, drop := rep.Worst()
	if worst != victim {
		t.Fatalf("worst class %d (drop %.3f), want victim %d (drop %.3f)", worst, drop, victim, vd.Drop)
	}
	if rep.Severity <= 0 {
		t.Fatalf("severity %v after a victim-class collapse", rep.Severity)
	}
}

// TestDriftReportClassAbsent pins the no-evidence contract: a class that
// never appears in the stream carries NaN accuracies, zero observations and
// a zero Drop.
func TestDriftReportClassAbsent(t *testing.T) {
	m, _, _ := onlineFixture(t, 14)
	l, err := NewOnlineLearner(m, OnlineConfig{Window: 64, RecentWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Feed only class 0 samples.
	for i := 0; i < 24; i++ {
		observeRow(t, l, i, 0)
	}
	rep := l.DriftReport()
	for c := 1; c < m.Classes(); c++ {
		cd := rep.Classes[c]
		if cd.Observations != 0 || cd.Drop != 0 {
			t.Fatalf("absent class %d attributed: %+v", c, cd)
		}
		if !math.IsNaN(cd.BaselineAccuracy) || !math.IsNaN(cd.WindowAccuracy) {
			t.Fatalf("absent class %d carries accuracy evidence: %+v", c, cd)
		}
	}
	if rep.Classes[0].Observations == 0 {
		t.Fatal("observed class lost its observations")
	}
}

func TestGateVerdicts(t *testing.T) {
	m, _, test := onlineFixture(t, 15)
	// A second model with a different seed: same task, different holdout
	// verdicts — whichever way the margin lands, the threshold cases below
	// derive from the measured value.
	cfg := DefaultConfig()
	cfg.Dim = m.Dim()
	cfg.Iterations = 4
	cfg.Seed = 99
	hold := test.X[:40]
	holdY := test.Y[:40]

	g := NewGate(GateConfig{})
	if _, err := g.Evaluate(nil, m, hold, holdY); err == nil {
		t.Fatal("nil champion accepted")
	}
	if _, err := g.Evaluate(m, nil, hold, holdY); err == nil {
		t.Fatal("nil challenger accepted")
	}
	if _, err := g.Evaluate(m, m, hold, holdY[:10]); err == nil {
		t.Fatal("ragged holdout accepted")
	}

	// Empty holdout: no evidence, publish by default.
	v, err := g.Evaluate(m, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Publish || v.HoldoutSize != 0 {
		t.Fatalf("empty holdout verdict %+v, want default publish", v)
	}

	// Self-play: champion == challenger ties at margin 0 and the tie
	// publishes under the default MinMargin 0.
	v, err = g.Evaluate(m, m, hold, holdY)
	if err != nil {
		t.Fatal(err)
	}
	if v.Margin != 0 || !v.Publish {
		t.Fatalf("self-play verdict %+v, want margin 0 publish", v)
	}
	if v.HoldoutSize != len(hold) {
		t.Fatalf("holdout size %d, want %d", v.HoldoutSize, len(hold))
	}

	// Tie exactly AT the threshold publishes; a hair above it rejects.
	atTie := NewGate(GateConfig{MinMargin: v.Margin})
	if tv, _ := atTie.Evaluate(m, m, hold, holdY); !tv.Publish {
		t.Fatalf("margin %v at threshold %v rejected, ties must publish", tv.Margin, v.Margin)
	}
	above := NewGate(GateConfig{MinMargin: v.Margin + 1e-6})
	if tv, _ := above.Evaluate(m, m, hold, holdY); tv.Publish {
		t.Fatalf("margin %v below threshold %v published", tv.Margin, v.Margin+1e-6)
	}
	// A negative MinMargin tolerates a bounded regression.
	lenient := NewGate(GateConfig{MinMargin: -1})
	if tv, _ := lenient.Evaluate(m, m, hold, holdY); !tv.Publish {
		t.Fatal("lenient gate rejected a tie")
	}
}

func TestRetrainGatedRejectKeepsIncumbent(t *testing.T) {
	m, _, test := onlineFixture(t, 16)
	l, err := NewOnlineLearner(m, OnlineConfig{
		Window:       128,
		RecentWindow: 16,
		Retrain:      RetrainConfig{Iterations: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clean feedback: the incumbent is already good, so no challenger can
	// lead it by 0.5 on the holdout — a guaranteed, deterministic reject.
	for i := range test.X {
		if _, err := l.Observe(test.X[i], test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	strict := NewGate(GateConfig{MinMargin: 0.5})
	next, v, err := l.RetrainGated(strict, false)
	if err != nil {
		t.Fatal(err)
	}
	if next != nil {
		t.Fatal("rejected challenger was returned as published")
	}
	if v.Publish || v.Forced {
		t.Fatalf("verdict %+v, want reject", v)
	}
	if v.HoldoutSize == 0 {
		t.Fatal("strict gate judged without a holdout")
	}
	if l.Model() != m {
		t.Fatal("rejection rebound the learner away from the incumbent")
	}
	if l.Retrains() != 0 || l.Rejections() != 1 {
		t.Fatalf("retrains=%d rejections=%d, want 0/1", l.Retrains(), l.Rejections())
	}

	// Forced publish: same strict gate, but force wins. The verdict still
	// reports the losing margin, and the learner rebinds to the successor.
	next, v, err = l.RetrainGated(strict, true)
	if err != nil {
		t.Fatal(err)
	}
	if next == nil || l.Model() != next {
		t.Fatal("forced publish did not rebind the successor")
	}
	if !v.Forced {
		t.Fatal("forced verdict not marked")
	}
	if v.Publish {
		t.Fatalf("force must not rewrite the gate's own verdict: %+v", v)
	}
	if l.Retrains() != 1 || l.Rejections() != 1 {
		t.Fatalf("retrains=%d rejections=%d after force, want 1/1", l.Retrains(), l.Rejections())
	}
}
