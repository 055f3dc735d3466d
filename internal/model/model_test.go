package model

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/rng"
)

// trainCfg is the experiments' Algorithm 1 setting (η = 0.05, 20 epochs,
// no early stop).
var trainCfg = TrainConfig{LearningRate: 0.05, Epochs: 20, Seed: 1}

// encodedToy returns a small, learnable encoded dataset: 3 well-separated
// Gaussian classes pushed through an RBF encoder.
func encodedToy(t *testing.T, d int, seed uint64) (tr, te *mat.Dense, trY, teY []int, k int) {
	t.Helper()
	spec := &dataset.Spec{
		Name: "toy", Features: 10, Classes: 3,
		Train: 250, Test: 100,
		Subclusters: 1, LatentDim: 4,
		CenterStd: 1.2, IntraStd: 0.25, Warp: 0.4, NoiseStd: 0.05,
		Seed: seed,
	}
	train, test, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dataset.NormalizePair(train, test)
	enc := encoding.NewRBF(train.Features(), d, seed^0xfeed)
	return enc.EncodeBatch(train.X), enc.EncodeBatch(test.X), train.Y, test.Y, train.Classes
}

func TestNewValidation(t *testing.T) {
	for _, args := range [][2]int{{1, 10}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) did not panic", args[0], args[1])
				}
			}()
			New(args[0], args[1])
		}()
	}
}

func TestZeroModelScoresZero(t *testing.T) {
	m := New(3, 16)
	h := make([]float64, 16)
	rng.New(1).FillNorm(h, 0, 1)
	scores := m.Scores(h, make([]float64, 3))
	for _, s := range scores {
		if s != 0 {
			t.Fatalf("zero model scored %v", s)
		}
	}
}

func TestScoresZeroQuery(t *testing.T) {
	m := New(2, 4)
	copy(m.Weights.Row(0), []float64{1, 2, 3, 4})
	m.RefreshNorms()
	scores := m.Scores(make([]float64, 4), make([]float64, 2))
	if scores[0] != 0 || scores[1] != 0 {
		t.Fatal("zero query should score 0 everywhere")
	}
}

func TestScoresAreCosine(t *testing.T) {
	m := New(2, 3)
	copy(m.Weights.Row(0), []float64{1, 0, 0})
	copy(m.Weights.Row(1), []float64{0, 2, 0})
	m.RefreshNorms()
	h := []float64{3, 4, 0}
	scores := m.Scores(h, make([]float64, 2))
	if math.Abs(scores[0]-0.6) > 1e-12 || math.Abs(scores[1]-0.8) > 1e-12 {
		t.Fatalf("scores = %v, want [0.6 0.8]", scores)
	}
	if m.Predict(h) != 1 {
		t.Fatal("Predict should pick class 1")
	}
	i1, i2 := m.Top2(h)
	if i1 != 1 || i2 != 0 {
		t.Fatalf("Top2 = (%d,%d), want (1,0)", i1, i2)
	}
}

func TestAdaptiveStepCorrectSampleNoChange(t *testing.T) {
	m := New(2, 3)
	copy(m.Weights.Row(0), []float64{1, 0, 0})
	copy(m.Weights.Row(1), []float64{0, 1, 0})
	m.RefreshNorms()
	before := m.Weights.Clone()
	ok := m.AdaptiveStep([]float64{1, 0.1, 0}, 0, 0.1, make([]float64, 2))
	if !ok {
		t.Fatal("correctly classified sample reported as error")
	}
	for i := range before.Data {
		if m.Weights.Data[i] != before.Data[i] {
			t.Fatal("correct sample must not change the model")
		}
	}
}

func TestAdaptiveStepUpdatesBothClasses(t *testing.T) {
	m := New(2, 3)
	copy(m.Weights.Row(0), []float64{1, 0, 0})
	copy(m.Weights.Row(1), []float64{0, 1, 0})
	m.RefreshNorms()
	// Most similar to class 0 (but not perfectly aligned, so 1-δ > 0 and
	// the update is non-degenerate), true label 1.
	h := []float64{1, 0.2, 0.3}
	ok := m.AdaptiveStep(h, 1, 0.5, make([]float64, 2))
	if ok {
		t.Fatal("misclassified sample reported as correct")
	}
	// class 0 weakened along h, class 1 strengthened along h
	if m.Weights.At(0, 0) >= 1 {
		t.Fatalf("wrong class not weakened: %v", m.Weights.At(0, 0))
	}
	if m.Weights.At(1, 0) <= 0 {
		t.Fatalf("true class not strengthened: %v", m.Weights.At(1, 0))
	}
	// norm cache must be fresh
	if math.Abs(m.norms[0]-mat.Norm2(m.Weights.Row(0))) > 1e-12 {
		t.Fatal("norm cache stale after update")
	}
}

// The (1-δ) scaling: a sample nearly identical to its class vector causes a
// near-zero update; a novel sample causes a large one.
func TestAdaptiveUpdateScalesWithNovelty(t *testing.T) {
	mkModel := func() *Model {
		m := New(2, 4)
		copy(m.Weights.Row(0), []float64{1, 0, 0, 0})
		copy(m.Weights.Row(1), []float64{0, 0, 1, 0})
		m.RefreshNorms()
		return m
	}
	// Sample aligned with class 0 but labeled 1 (partial overlap case).
	familiar := []float64{1, 0, 0.05, 0}
	novel := []float64{0.4, 0.9, 0.05, 0}

	m1 := mkModel()
	m1.AdaptiveStep(familiar, 1, 1, make([]float64, 2))
	deltaFamiliar := math.Abs(m1.Weights.At(0, 0) - 1)

	m2 := mkModel()
	m2.AdaptiveStep(novel, 1, 1, make([]float64, 2))
	deltaNovel := math.Abs(m2.Weights.At(0, 0) - 1)

	if deltaFamiliar >= deltaNovel {
		t.Fatalf("familiar update %v should be smaller than novel update %v", deltaFamiliar, deltaNovel)
	}
}

func TestFitLearnsToy(t *testing.T) {
	tr, te, trY, teY, k := encodedToy(t, 512, 1)
	m := New(k, 512)
	cfg := trainCfg
	res, err := Fit(m, tr, trY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 || len(res.History) != res.Epochs {
		t.Fatal("bad train result bookkeeping")
	}
	acc := Accuracy(m, te, teY)
	if acc < 0.85 {
		t.Fatalf("test accuracy %.3f too low on easy toy task", acc)
	}
	// training accuracy should improve from epoch 1 to the best epoch
	first := res.History[0]
	best := first
	for _, a := range res.History {
		if a > best {
			best = a
		}
	}
	if best <= first && first < 0.99 {
		t.Fatalf("training accuracy never improved: history=%v", res.History)
	}
}

func TestFitValidation(t *testing.T) {
	m := New(2, 8)
	H := mat.New(4, 8)
	y := []int{0, 1, 0, 1}
	if _, err := Fit(m, H, y[:3], trainCfg); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := Fit(m, mat.New(4, 7), y, trainCfg); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	bad := trainCfg
	bad.LearningRate = 0
	if _, err := Fit(m, H, y, bad); err == nil {
		t.Fatal("zero learning rate accepted")
	}
	bad2 := trainCfg
	bad2.Epochs = 0
	if _, err := Fit(m, H, y, bad2); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestFitDeterministic(t *testing.T) {
	tr, _, trY, _, k := encodedToy(t, 128, 2)
	m1 := New(k, 128)
	m2 := New(k, 128)
	cfg := trainCfg
	cfg.Epochs = 3
	if _, err := Fit(m1, tr, trY, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(m2, tr, trY, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range m1.Weights.Data {
		if m1.Weights.Data[i] != m2.Weights.Data[i] {
			t.Fatal("training is not deterministic")
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	tr, _, trY, _, k := encodedToy(t, 256, 3)
	m := New(k, 256)
	cfg := TrainConfig{LearningRate: 0.05, Epochs: 100, Patience: 2, Seed: 1}
	res, err := Fit(m, tr, trY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 100 {
		t.Log("warning: early stopping never triggered in 100 epochs (acceptable but unusual)")
	}
	if res.Epochs < 3 {
		t.Fatalf("stopped suspiciously early: %d epochs", res.Epochs)
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	tr, _, trY, _, k := encodedToy(t, 128, 4)
	m := New(k, 128)
	if _, err := Fit(m, tr, trY, trainCfg); err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(tr)
	for i := 0; i < tr.Rows; i++ {
		if single := m.Predict(tr.Row(i)); single != batch[i] {
			t.Fatalf("row %d: batch %d != single %d", i, batch[i], single)
		}
	}
}

// TestScoreBatchBitwiseAcrossGOMAXPROCS checks the scoring epilogue run
// in the GEMM's shards (GOMAXPROCS 2 and 4) against the pass after the
// product (GOMAXPROCS 1), bit for bit: row counts off the groups of four
// and the blocks of eight, a zero row, a zero class, and 600 rows of a
// 300-wide H, several ranges per shard.
func TestScoreBatchBitwiseAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const dim, k = 300, 5
	m := New(k, dim)
	r := rng.New(11)
	r.FillNorm(m.Weights.Data[:(k-1)*dim], 0, 1) // the last class stays zero
	m.RefreshNorms()
	H := mat.New(600, dim)
	r.FillNorm(H.Data[dim:], 0, 1) // row 0 stays zero
	for _, n := range []int{1, 3, 4, 5, 9, 13, 67, 600} {
		Hn := mat.View(n, dim, H.Data[:n*dim])
		runtime.GOMAXPROCS(1)
		want, wantOut := m.ScoreBatchInto(Hn, mat.New(n, k)), m.PredictBatch(Hn)
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, gotOut := m.ScoreBatchInto(Hn, mat.New(n, k)), m.PredictBatch(Hn)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%d rows at GOMAXPROCS %d: score %d = %v, want %v", n, procs, i, v, want.Data[i])
				}
			}
			for i, c := range gotOut {
				if c != wantOut[i] {
					t.Fatalf("%d rows at GOMAXPROCS %d: row %d predicts %d, want %d", n, procs, i, c, wantOut[i])
				}
			}
		}
	}
}

func TestTopKAccuracyMonotone(t *testing.T) {
	tr, te, trY, teY, k := encodedToy(t, 256, 5)
	m := New(k, 256)
	if _, err := Fit(m, tr, trY, trainCfg); err != nil {
		t.Fatal(err)
	}
	a1 := TopKAccuracy(m, te, teY, 1)
	a2 := TopKAccuracy(m, te, teY, 2)
	a3 := TopKAccuracy(m, te, teY, 3)
	if a1 > a2 || a2 > a3 {
		t.Fatalf("top-k accuracy not monotone: %v %v %v", a1, a2, a3)
	}
	if a3 != 1.0 && k == 3 {
		t.Fatalf("top-3 of 3 classes must be 1.0, got %v", a3)
	}
	if acc := Accuracy(m, te, teY); math.Abs(acc-a1) > 1e-12 {
		t.Fatalf("Accuracy %v != TopK(1) %v", acc, a1)
	}
}

func TestZeroDims(t *testing.T) {
	m := New(2, 4)
	for c := 0; c < 2; c++ {
		for d := 0; d < 4; d++ {
			m.Weights.Set(c, d, float64(c*4+d+1))
		}
	}
	m.RefreshNorms()
	m.ZeroDims([]int{1, 3})
	for c := 0; c < 2; c++ {
		if m.Weights.At(c, 1) != 0 || m.Weights.At(c, 3) != 0 {
			t.Fatal("listed dims not zeroed")
		}
		if m.Weights.At(c, 0) == 0 || m.Weights.At(c, 2) == 0 {
			t.Fatal("unlisted dims were zeroed")
		}
		if math.Abs(m.norms[c]-mat.Norm2(m.Weights.Row(c))) > 1e-12 {
			t.Fatal("norms stale after ZeroDims")
		}
	}
}

func TestZeroDimsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ZeroDims did not panic")
		}
	}()
	New(2, 4).ZeroDims([]int{4})
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 4)
	m.Weights.Set(0, 0, 5)
	m.RefreshNorms()
	c := m.Clone()
	c.Weights.Set(0, 0, 9)
	c.RefreshNorms()
	if m.Weights.At(0, 0) != 5 {
		t.Fatal("clone shares weights")
	}
	if m.norms[0] == c.norms[0] {
		t.Fatal("clone shares norm cache")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := New(2, 4)
	if !math.IsNaN(Accuracy(m, mat.New(0, 4), nil)) {
		t.Fatal("accuracy of empty set should be NaN")
	}
}

// Property: AdaptiveStep never updates when prediction is correct, always
// updates the two involved classes otherwise, and leaves other classes
// untouched.
func TestAdaptiveStepIsolationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const k, d = 5, 32
		m := New(k, d)
		r.FillNorm(m.Weights.Data, 0, 1)
		m.RefreshNorms()
		h := make([]float64, d)
		r.FillNorm(h, 0, 1)
		y := r.Intn(k)
		before := m.Weights.Clone()
		pred := m.Predict(h)
		m.AdaptiveStep(h, y, 0.3, make([]float64, k))
		for c := 0; c < k; c++ {
			changed := false
			for j := 0; j < d; j++ {
				if m.Weights.At(c, j) != before.At(c, j) {
					changed = true
					break
				}
			}
			if pred == y && changed {
				return false // nothing may change on a correct prediction
			}
			if pred != y {
				if (c == pred || c == y) != changed {
					return false // exactly the two involved classes change
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdaptiveEpoch512(b *testing.B) {
	spec := &dataset.Spec{
		Name: "bench", Features: 20, Classes: 5,
		Train: 200, Test: 10,
		Subclusters: 2, LatentDim: 6,
		CenterStd: 1, IntraStd: 0.4, Warp: 0.5, NoiseStd: 0.1, Seed: 1,
	}
	train, _, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	enc := encoding.NewRBF(train.Features(), 512, 2)
	H := enc.EncodeBatch(train.X)
	m := New(train.Classes, 512)
	scratch := make([]float64, train.Classes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < H.Rows; j++ {
			m.AdaptiveStep(H.Row(j), train.Y[j], 0.05, scratch)
		}
	}
}

func TestFitOnlineLearnsToy(t *testing.T) {
	tr, te, trY, teY, k := encodedToy(t, 256, 21)
	m := New(k, 256)
	cfg := trainCfg
	cfg.Epochs = 10
	res, err := FitOnline(m, tr, trY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 10 || len(res.History) != 10 {
		t.Fatalf("epochs bookkeeping: %d epochs, %d history", res.Epochs, len(res.History))
	}
	if acc := Accuracy(m, te, teY); acc < 0.85 {
		t.Fatalf("FitOnline accuracy %.3f too low", acc)
	}
}

func TestFitOnlineSinglePassBeatsNothing(t *testing.T) {
	tr, te, trY, teY, k := encodedToy(t, 256, 22)
	m := New(k, 256)
	cfg := trainCfg
	cfg.Epochs = 1 // single pass only
	if _, err := FitOnline(m, tr, trY, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, te, teY); acc < 0.6 {
		t.Fatalf("single-pass OnlineHD accuracy %.3f too low", acc)
	}
}

func TestFitOnlineValidation(t *testing.T) {
	m := New(2, 8)
	if _, err := FitOnline(m, mat.New(3, 8), []int{0, 1}, trainCfg); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := FitOnline(m, mat.New(2, 7), []int{0, 1}, trainCfg); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	bad := trainCfg
	bad.LearningRate = 0
	if _, err := FitOnline(m, mat.New(2, 8), []int{0, 1}, bad); err == nil {
		t.Fatal("zero lr accepted")
	}
}
