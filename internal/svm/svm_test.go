package svm

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/rng"
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

func TestLinearSeparableBinary(t *testing.T) {
	// Two linearly separable clouds.
	r := rng.New(1)
	X := mat.New(200, 2)
	y := make([]int, 200)
	for i := 0; i < 200; i++ {
		c := i % 2
		y[i] = c
		offset := 3.0
		if c == 1 {
			offset = -3.0
		}
		X.Set(i, 0, offset+r.NormFloat64())
		X.Set(i, 1, r.NormFloat64())
	}
	m, err := Train(X, y, 2, Config{Lambda: 1e-3, Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(X, y); acc < 0.98 {
		t.Fatalf("linear SVM accuracy %.3f on separable data", acc)
	}
}

func TestRFFBeatsLinearOnNonlinearTask(t *testing.T) {
	// XOR-style task: linear SVM ~chance, RFF SVM should do well.
	r := rng.New(2)
	const n = 600
	X := mat.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a := r.NormFloat64()
		b := r.NormFloat64()
		X.Set(i, 0, a)
		X.Set(i, 1, b)
		if (a > 0) == (b > 0) {
			y[i] = 1
		}
	}
	lin, err := Train(X, y, 2, Config{Lambda: 1e-4, Epochs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rff, err := Train(X, y, 2, Config{Lambda: 1e-4, Epochs: 20, RFFDim: 512, Gamma: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	linAcc := lin.Accuracy(X, y)
	rffAcc := rff.Accuracy(X, y)
	t.Logf("XOR: linear=%.3f rff=%.3f", linAcc, rffAcc)
	if rffAcc < 0.85 {
		t.Fatalf("RFF SVM accuracy %.3f too low on XOR", rffAcc)
	}
	if rffAcc < linAcc+0.2 {
		t.Fatalf("RFF (%.3f) should clearly beat linear (%.3f) on XOR", rffAcc, linAcc)
	}
}

func TestMulticlassToy(t *testing.T) {
	train, test := toyData(t, 3)
	m, err := Train(train.X, train.Y, train.Classes, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(test.X, test.Y); acc < 0.8 {
		t.Fatalf("SVM accuracy %.3f too low on toy task", acc)
	}
}

func TestValidation(t *testing.T) {
	train, _ := toyData(t, 4)
	if _, err := Train(train.X, train.Y[:4], train.Classes, DefaultConfig()); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := Train(train.X, train.Y, 1, DefaultConfig()); err == nil {
		t.Fatal("single class accepted")
	}
	if _, err := Train(mat.New(0, 4), nil, 2, DefaultConfig()); err == nil {
		t.Fatal("empty set accepted")
	}
	bad := DefaultConfig()
	bad.Lambda = 0
	if _, err := Train(train.X, train.Y, train.Classes, bad); err == nil {
		t.Fatal("zero lambda accepted")
	}
	bad2 := DefaultConfig()
	bad2.Epochs = 0
	if _, err := Train(train.X, train.Y, train.Classes, bad2); err == nil {
		t.Fatal("zero epochs accepted")
	}
	bad3 := DefaultConfig()
	bad3.RFFDim = -1
	if _, err := Train(train.X, train.Y, train.Classes, bad3); err == nil {
		t.Fatal("negative RFFDim accepted")
	}
	yBad := make([]int, len(train.Y))
	copy(yBad, train.Y)
	yBad[3] = -2
	if _, err := Train(train.X, yBad, train.Classes, DefaultConfig()); err == nil {
		t.Fatal("negative label accepted")
	}
}

func TestDeterministic(t *testing.T) {
	train, test := toyData(t, 5)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	run := func() []int {
		m, err := Train(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.PredictBatch(test.X)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SVM training not deterministic")
		}
	}
}

func TestPredictSingleMatchesBatch(t *testing.T) {
	train, test := toyData(t, 6)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	m, err := Train(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(test.X)
	for i := 0; i < 10; i++ {
		if p := m.PredictBatch(mat.View(1, test.X.Cols, test.X.Row(i)))[0]; p != batch[i] {
			t.Fatalf("row %d: single %d != batch %d", i, p, batch[i])
		}
	}
}
