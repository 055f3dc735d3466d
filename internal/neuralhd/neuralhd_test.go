package neuralhd

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
)

func toyData(t testing.TB, seed uint64) (train, test *dataset.Dataset) {
	t.Helper()
	spec := &dataset.Spec{
		Name: "toy", Features: 16, Classes: 4,
		Train: 400, Test: 150,
		Subclusters: 2, LatentDim: 5,
		CenterStd: 1.0, IntraStd: 0.4, Warp: 0.9, NoiseStd: 0.12,
		Seed: seed,
	}
	train, test, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dataset.NormalizePair(train, test)
	return train, test
}

func TestTrainLearns(t *testing.T) {
	train, test := toyData(t, 1)
	cfg := DefaultConfig()
	cfg.Dim = 256
	cfg.Iterations = 10
	enc := encoding.NewRBF(train.Features(), cfg.Dim, 7)
	clf, stats, err := Train(enc, train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := clf.Accuracy(test.X, test.Y); acc < 0.75 {
		t.Fatalf("NeuralHD accuracy %.3f too low", acc)
	}
	if stats.TotalRegenerated == 0 {
		t.Fatal("NeuralHD never regenerated")
	}
	if len(stats.TrainAccPerIter) != cfg.Iterations {
		t.Fatalf("expected %d iteration records, got %d", cfg.Iterations, len(stats.TrainAccPerIter))
	}
}

func TestSaliencyScores(t *testing.T) {
	m := model.New(3, 4)
	// dim 0: identical weights across classes -> zero variance.
	// dim 2: strongly class-dependent -> high variance.
	for c := 0; c < 3; c++ {
		m.Weights.Set(c, 0, 1)
		m.Weights.Set(c, 1, 0.1*float64(c))
		m.Weights.Set(c, 2, float64(2*c-2)) // -2, 0, 2
		m.Weights.Set(c, 3, 0.5)
	}
	m.RefreshNorms()
	s := m.Saliency()
	if len(s) != 4 {
		t.Fatalf("saliency length %d", len(s))
	}
	if s[2] <= s[0] {
		t.Fatalf("discriminative dim should outscore constant dim: %v", s)
	}
}

func TestLeastSalientSelectsLowVariance(t *testing.T) {
	m := model.New(2, 6)
	for c := 0; c < 2; c++ {
		for d := 0; d < 6; d++ {
			// dims 0..2 constant across classes, dims 3..5 class-dependent
			if d < 3 {
				m.Weights.Set(c, d, 1)
			} else {
				m.Weights.Set(c, d, float64(1-2*c))
			}
		}
	}
	m.RefreshNorms()
	dims := leastSalient(m, 3)
	for _, d := range dims {
		if d >= 3 {
			t.Fatalf("leastSalient picked discriminative dim %d: %v", d, dims)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	train, _ := toyData(t, 2)
	cfg := DefaultConfig()
	cfg.Dim = 64
	enc := encoding.NewRBF(train.Features(), 64, 1)
	if _, _, err := Train(enc, train.X, train.Y[:5], train.Classes, cfg); err == nil {
		t.Fatal("label mismatch accepted")
	}
	cfg2 := cfg
	cfg2.Dim = 128
	if _, _, err := Train(enc, train.X, train.Y, train.Classes, cfg2); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	bad := cfg
	bad.RegenRate = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("bad regen rate accepted")
	}
	bad2 := cfg
	bad2.LearningRate = -1
	if err := bad2.Validate(); err == nil {
		t.Fatal("bad lr accepted")
	}
	bad3 := cfg
	bad3.Iterations = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero iterations accepted")
	}
	bad4 := cfg
	bad4.EpochsPerIter = 0
	if err := bad4.Validate(); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	train, test := toyData(t, 3)
	cfg := DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 5
	run := func() []int {
		enc := encoding.NewRBF(train.Features(), cfg.Dim, 9)
		clf, _, err := Train(enc, train.X, train.Y, train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return clf.PredictBatch(test.X)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("NeuralHD training not deterministic")
		}
	}
}

func TestPredictSingleMatchesBatch(t *testing.T) {
	train, test := toyData(t, 4)
	cfg := DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 4
	enc := encoding.NewRBF(train.Features(), cfg.Dim, 5)
	clf, _, err := Train(enc, train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := clf.PredictBatch(test.X)
	for i := 0; i < 10; i++ {
		if p := clf.PredictBatch(mat.View(1, test.X.Cols, test.X.Row(i)))[0]; p != batch[i] {
			t.Fatalf("row %d: single %d != batch %d", i, p, batch[i])
		}
	}
}

func TestZeroRegenRateIsStatic(t *testing.T) {
	train, test := toyData(t, 5)
	cfg := DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 6
	cfg.RegenRate = 0
	enc := encoding.NewRBF(train.Features(), cfg.Dim, 11)
	clf, stats, err := Train(enc, train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRegenerated != 0 {
		t.Fatal("zero regen rate still regenerated")
	}
	if acc := clf.Accuracy(test.X, test.Y); acc < 0.6 {
		t.Fatalf("static fallback accuracy %.3f too low", acc)
	}
	// nothing else to assert: the static fallback simply must learn
}
