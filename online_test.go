package disthd

import (
	"math"
	"testing"
)

// onlineFixture trains a small model and returns it with its data.
func onlineFixture(t testing.TB, seed uint64) (*Model, DataSplit, DataSplit) {
	t.Helper()
	train, test, err := SyntheticBenchmark("UCIHAR", 0.12, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 8
	cfg.Seed = seed
	m, err := TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, train, test
}

// shiftRow returns a copy of x with a constant offset added to the leading
// third of its features — a synthetic severe drift.
func shiftRow(x []float64, offset float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for i := 0; i < len(out)/3; i++ {
		out[i] += offset
	}
	return out
}

func TestOnlineLearnerWindowBounds(t *testing.T) {
	m, _, test := onlineFixture(t, 1)
	l, err := NewOnlineLearner(m, OnlineConfig{Window: 32, RecentWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range test.X {
		if _, err := l.Observe(x, test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if l.WindowLen() != 32 {
		t.Fatalf("window holds %d samples, capacity 32", l.WindowLen())
	}
	if got, want := l.Observations(), uint64(len(test.X)); got != want {
		t.Fatalf("observations %d, want %d", got, want)
	}
	X, y := l.Window()
	if len(X) != 32 || len(y) != 32 {
		t.Fatalf("snapshot sized %d/%d", len(X), len(y))
	}
	// Sliding mode keeps the most recent samples, oldest first.
	n := len(test.X)
	for i := 0; i < 32; i++ {
		want := test.X[n-32+i]
		for j := range want {
			if X[i][j] != want[j] {
				t.Fatalf("window slot %d is not stream sample %d", i, n-32+i)
			}
		}
		if y[i] != test.Y[n-32+i] {
			t.Fatalf("window label %d mismatch", i)
		}
	}
}

func TestOnlineLearnerValidatesFeedback(t *testing.T) {
	m, _, test := onlineFixture(t, 2)
	l, err := NewOnlineLearner(m, OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Observe(test.X[0][:3], 0); err == nil {
		t.Fatal("short feature vector accepted")
	}
	if _, err := l.Observe(test.X[0], -1); err == nil {
		t.Fatal("negative label accepted")
	}
	if _, err := l.Observe(test.X[0], m.Classes()); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if math.IsNaN(l.WindowAccuracy()) == false {
		t.Fatal("accuracy defined before any valid observation")
	}
	if l.WindowLen() != 0 {
		t.Fatal("rejected feedback entered the window")
	}
}

func TestOnlineLearnerDetectsDrift(t *testing.T) {
	m, _, test := onlineFixture(t, 3)
	l, err := NewOnlineLearner(m, OnlineConfig{Window: 256, RecentWindow: 32, DriftThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Clean phase: establish the baseline.
	for i := 0; i < 64; i++ {
		x := test.X[i%len(test.X)]
		if _, err := l.Observe(x, test.Y[i%len(test.Y)]); err != nil {
			t.Fatal(err)
		}
	}
	if l.DriftDetected() {
		t.Fatalf("drift flagged on clean data (baseline %.2f, window %.2f)",
			l.BaselineAccuracy(), l.WindowAccuracy())
	}
	// Severe shift: accuracy collapses, drift must fire.
	for i := 0; i < 64; i++ {
		x := shiftRow(test.X[i%len(test.X)], 6.0)
		if _, err := l.Observe(x, test.Y[i%len(test.Y)]); err != nil {
			t.Fatal(err)
		}
	}
	if !l.DriftDetected() {
		t.Fatalf("drift not detected after severe shift (baseline %.2f, window %.2f)",
			l.BaselineAccuracy(), l.WindowAccuracy())
	}
}

func TestOnlineLearnerRetrainAdapts(t *testing.T) {
	m, _, test := onlineFixture(t, 4)
	l, err := NewOnlineLearner(m, OnlineConfig{
		Window:       256,
		RecentWindow: 32,
		Retrain:      RetrainConfig{Iterations: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	const offset = 4.0
	// Feed a drifted stream so the window fills with post-drift samples.
	driftOK := 0
	n := 0
	for i := range test.X {
		x := shiftRow(test.X[i], offset)
		ok, err := l.Observe(x, test.Y[i])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			driftOK++
		}
		n++
	}
	before := float64(driftOK) / float64(n)

	next, err := l.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if next == m {
		t.Fatal("Retrain returned the original model")
	}
	if l.Model() != next {
		t.Fatal("Retrain did not rebind the learner")
	}
	if l.Retrains() != 1 {
		t.Fatalf("retrain counter %d, want 1", l.Retrains())
	}
	if !math.IsNaN(l.WindowAccuracy()) {
		t.Fatal("windowed accuracy not reset after rebind")
	}

	// The retrained model must beat the stale one on the drifted
	// distribution.
	correct := 0
	for i := range test.X {
		pred, err := next.Predict(shiftRow(test.X[i], offset))
		if err != nil {
			t.Fatal(err)
		}
		if pred == test.Y[i] {
			correct++
		}
	}
	after := float64(correct) / float64(len(test.X))
	if after <= before {
		t.Fatalf("retrain did not adapt: accuracy %.3f -> %.3f on drifted data", before, after)
	}

	// The original model is untouched by the retrain.
	cleanOK := 0
	for i := range test.X {
		pred, err := m.Predict(test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if pred == test.Y[i] {
			cleanOK++
		}
	}
	if float64(cleanOK)/float64(len(test.X)) < 0.5 {
		t.Fatal("original model degraded by a detached retrain")
	}
}

func TestRetrainValidatesWindow(t *testing.T) {
	m, _, test := onlineFixture(t, 6)
	if _, err := m.Retrain(nil, nil, RetrainConfig{}); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := m.Retrain(test.X[:4], test.Y[:3], RetrainConfig{}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	bad := [][]float64{make([]float64, m.Features()+1)}
	if _, err := m.Retrain(bad, []int{0}, RetrainConfig{}); err == nil {
		t.Fatal("wrong-width sample accepted")
	}
	nan := [][]float64{make([]float64, m.Features())}
	nan[0][0] = math.NaN()
	if _, err := m.Retrain(nan, []int{0}, RetrainConfig{}); err == nil {
		t.Fatal("NaN feature accepted")
	}
	l, err := NewOnlineLearner(m, OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Retrain(); err == nil {
		t.Fatal("learner retrain with empty window accepted")
	}
}
