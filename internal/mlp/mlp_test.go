package mlp

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
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

func TestNewShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = []int{32, 16}
	n, err := New(10, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n.Layers() != 3 || n.In() != 10 || n.Out() != 3 {
		t.Fatalf("layers=%d in=%d out=%d", n.Layers(), n.In(), n.Out())
	}
	if n.W[0].Rows != 32 || n.W[0].Cols != 10 {
		t.Fatal("first layer shape wrong")
	}
	if n.W[2].Rows != 3 || n.W[2].Cols != 16 {
		t.Fatal("output layer shape wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Hidden = nil },
		func(c *Config) { c.Hidden = []int{0} },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.Momentum = 1 },
		func(c *Config) { c.Momentum = -0.1 },
		func(c *Config) { c.WeightDecay = -1 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(4, 2, cfg); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	if _, err := New(0, 2, DefaultConfig()); err == nil {
		t.Fatal("zero input width accepted")
	}
	if _, err := New(4, 1, DefaultConfig()); err == nil {
		t.Fatal("single-class output accepted")
	}
}

func TestSoftmax(t *testing.T) {
	z := []float64{1, 2, 3}
	softmaxInPlace(z)
	var sum float64
	for _, v := range z {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax out of (0,1): %v", z)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(z[2] > z[1] && z[1] > z[0]) {
		t.Fatal("softmax should preserve ordering")
	}
	// numerical stability under large logits
	big := []float64{1000, 1001}
	softmaxInPlace(big)
	if math.IsNaN(big[0]) || math.IsInf(big[1], 0) {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestFitLearnsToy(t *testing.T) {
	train, test := toyData(t, 1)
	cfg := DefaultConfig()
	cfg.Hidden = []int{64}
	cfg.Epochs = 25
	n, err := New(train.Features(), train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := n.Fit(train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if acc := n.Accuracy(test.X, test.Y); acc < 0.85 {
		t.Fatalf("MLP accuracy %.3f too low on easy toy task", acc)
	}
}

func TestFitValidation(t *testing.T) {
	n, err := New(4, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	X := mat.New(3, 4)
	if _, err := n.Fit(X, []int{0, 1}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := n.Fit(mat.New(2, 5), []int{0, 1}); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := n.Fit(X, []int{0, 1, 5}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestDeterministic(t *testing.T) {
	train, test := toyData(t, 2)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	run := func() []int {
		n, err := New(train.Features(), train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Fit(train.X, train.Y); err != nil {
			t.Fatal(err)
		}
		return n.PredictBatch(test.X)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MLP training not deterministic")
		}
	}
}

func TestPredictBatchMatchesSingle(t *testing.T) {
	train, test := toyData(t, 4)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	n, err := New(train.Features(), train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	batch := n.PredictBatch(test.X)
	for i := 0; i < 10; i++ {
		if p := n.PredictBatch(mat.View(1, test.X.Cols, test.X.Row(i)))[0]; p != batch[i] {
			t.Fatalf("row %d: single %d != batch %d", i, p, batch[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	n, err := New(4, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	c.W[0].Set(0, 0, 123)
	c.B[0][0] = 9
	if n.W[0].At(0, 0) == 123 || n.B[0][0] == 9 {
		t.Fatal("Clone shares storage")
	}
}

// Gradient check: compare analytic gradients against finite differences on
// a tiny network. This pins the backprop implementation.
func TestGradientCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = []int{5}
	cfg.Seed = 3
	n, err := New(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 1.1}
	label := 1

	loss := func() float64 {
		acts := n.newActs()
		n.forward(x, acts)
		probs := make([]float64, n.Out())
		copy(probs, acts[len(acts)-1])
		softmaxInPlace(probs)
		return -math.Log(probs[label])
	}

	gW := []*mat.Dense{mat.New(5, 3), mat.New(2, 5)}
	gB := [][]float64{make([]float64, 5), make([]float64, 2)}
	acts := n.newActs()
	deltas := [][]float64{make([]float64, 5), make([]float64, 2)}
	n.accumulateGradients(x, label, acts, deltas, gW, gB)

	const eps = 1e-6
	for l := 0; l < 2; l++ {
		for idx := range n.W[l].Data {
			orig := n.W[l].Data[idx]
			n.W[l].Data[idx] = orig + eps
			lp := loss()
			n.W[l].Data[idx] = orig - eps
			lm := loss()
			n.W[l].Data[idx] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := gW[l].Data[idx]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: analytic %v vs numeric %v", l, idx, analytic, numeric)
			}
		}
		for j := range n.B[l] {
			orig := n.B[l][j]
			n.B[l][j] = orig + eps
			lp := loss()
			n.B[l][j] = orig - eps
			lm := loss()
			n.B[l][j] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-gB[l][j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d bias %d: analytic %v vs numeric %v", l, j, gB[l][j], numeric)
			}
		}
	}
}

func BenchmarkFitEpoch(b *testing.B) {
	train, _ := toyData(b, 5)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := New(train.Features(), train.Classes, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Fit(train.X, train.Y); err != nil {
			b.Fatal(err)
		}
	}
}
