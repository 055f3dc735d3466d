package baselinehd

import (
	"testing"

	"repro/internal/dataset"
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

func TestTrainLearnsAtHighDim(t *testing.T) {
	train, test := toyData(t, 1)
	cfg := Config{Dim: 2048, Epochs: 15, Seed: 1}
	clf, err := Train(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := clf.Accuracy(test.X, test.Y); acc < 0.7 {
		t.Fatalf("baselineHD accuracy %.3f too low at D=2048", acc)
	}
}

// The defining weakness the paper exploits: the static bipolar learner
// degrades sharply as D shrinks.
func TestAccuracyDropsWithDim(t *testing.T) {
	train, test := toyData(t, 2)
	accAt := func(d int) float64 {
		clf, err := Train(train.X, train.Y, train.Classes, Config{Dim: d, Epochs: 15, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return clf.Accuracy(test.X, test.Y)
	}
	low := accAt(64)
	high := accAt(2048)
	t.Logf("baselineHD: D=64 -> %.3f, D=2048 -> %.3f", low, high)
	if high < low {
		t.Fatalf("accuracy should not decrease with dimensionality: %.3f -> %.3f", low, high)
	}
}

func TestValidation(t *testing.T) {
	train, _ := toyData(t, 3)
	if _, err := Train(train.X, train.Y[:5], train.Classes, Config{Dim: 4096, Epochs: 20, Seed: 1}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := Train(train.X, train.Y, 1, Config{Dim: 4096, Epochs: 20, Seed: 1}); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := Train(train.X, train.Y, train.Classes, Config{Dim: 0, Epochs: 1}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := Train(train.X, train.Y, train.Classes, Config{Dim: 16, Epochs: -1}); err == nil {
		t.Fatal("negative epochs accepted")
	}
	yBad := make([]int, len(train.Y))
	copy(yBad, train.Y)
	yBad[0] = 99
	if _, err := Train(train.X, yBad, train.Classes, Config{Dim: 16, Epochs: 1, Seed: 1}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestDeterministic(t *testing.T) {
	train, test := toyData(t, 4)
	cfg := Config{Dim: 256, Epochs: 5, Seed: 7}
	run := func() []int {
		clf, err := Train(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return clf.PredictBatch(test.X)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("baselineHD not deterministic")
		}
	}
}

func TestPredictSingleMatchesBatch(t *testing.T) {
	train, test := toyData(t, 5)
	clf, err := Train(train.X, train.Y, train.Classes, Config{Dim: 256, Epochs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := clf.PredictBatch(test.X)
	h := make([]float64, clf.Enc.Dim())
	for i := 0; i < 10; i++ {
		clf.Enc.Encode(test.X.Row(i), h)
		if p := clf.predictEncoded(h); p != batch[i] {
			t.Fatalf("row %d: single %d != batch %d", i, p, batch[i])
		}
	}
}

func TestZeroEpochsBundlingOnly(t *testing.T) {
	train, test := toyData(t, 8)
	clf, err := Train(train.X, train.Y, train.Classes, Config{Dim: 1024, Epochs: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pure bundling should still beat chance (0.25) comfortably.
	if acc := clf.Accuracy(test.X, test.Y); acc < 0.4 {
		t.Fatalf("bundling-only accuracy %.3f barely above chance", acc)
	}
}
