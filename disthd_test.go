package disthd_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	disthd "repro"
)

// smallTask returns a quick synthetic benchmark for API tests.
func smallTask(t testing.TB) (train, test disthd.DataSplit) {
	t.Helper()
	train, test, err := disthd.SyntheticBenchmark("PAMAP2", 0.04, 7)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func quickConfig() disthd.Config {
	cfg := disthd.DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 8
	return cfg
}

func TestBenchmarkNames(t *testing.T) {
	names := disthd.BenchmarkNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 benchmark names, got %v", names)
	}
	for _, n := range names {
		if _, _, err := disthd.SyntheticBenchmark(n, 0.01, 1); err != nil {
			t.Fatalf("benchmark %s failed to generate: %v", n, err)
		}
	}
	if _, _, err := disthd.SyntheticBenchmark("nope", 0.01, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestTrainEvaluate(t *testing.T) {
	train, test := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes() != train.Classes || m.Dim() != 128 || m.Features() != 54 {
		t.Fatalf("model shape wrong: k=%d D=%d q=%d", m.Classes(), m.Dim(), m.Features())
	}
	acc, err := m.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 1.2/float64(train.Classes) {
		t.Fatalf("accuracy %.3f barely above chance", acc)
	}
	if m.Info.EffectiveDim < m.Dim() {
		t.Fatal("effective dim below physical dim")
	}
	if m.Info.Iterations == 0 || m.Info.FinalTrainAccuracy <= 0 {
		t.Fatalf("training info not populated: %+v", m.Info)
	}
}

func TestTrainDefaultConfigPath(t *testing.T) {
	train, _ := smallTask(t)
	// Default config (D=512) on the tiny split — just verify the happy
	// path end to end.
	m, err := disthd.Train(train.X, train.Y, train.Classes)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 512 {
		t.Fatalf("default Dim = %d, want 512", m.Dim())
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := disthd.Train(nil, nil, 2); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := disthd.Train([][]float64{{}}, []int{0}, 2); err == nil {
		t.Fatal("zero-feature samples accepted")
	}
	bad := quickConfig()
	bad.Encoder = disthd.EncoderKind(99)
	if _, err := disthd.TrainWithConfig([][]float64{{1, 2}}, []int{0}, 2, bad); err == nil {
		t.Fatal("unknown encoder accepted")
	}
}

func TestPredictAPIs(t *testing.T) {
	train, test := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := test.X[0]
	p, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p >= m.Classes() {
		t.Fatalf("prediction %d out of range", p)
	}
	p1, p2, err := m.PredictTop2(x)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p {
		t.Fatalf("top-2 first %d != predict %d", p1, p)
	}
	if p1 == p2 {
		t.Fatal("top-2 returned duplicates")
	}
	scores, err := m.Scores(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != m.Classes() {
		t.Fatalf("scores length %d", len(scores))
	}
	best := 0
	for c, s := range scores {
		if s > scores[best] {
			best = c
		}
	}
	if best != p {
		t.Fatal("scores argmax disagrees with Predict")
	}

	// width validation on every entry point
	short := x[:len(x)-1]
	if _, err := m.Predict(short); err == nil {
		t.Fatal("short input accepted by Predict")
	}
	if _, _, err := m.PredictTop2(short); err == nil {
		t.Fatal("short input accepted by PredictTop2")
	}
	if _, err := m.Scores(short); err == nil {
		t.Fatal("short input accepted by Scores")
	}
	if _, err := m.PredictBatch([][]float64{short}); err == nil {
		t.Fatal("short input accepted by PredictBatch")
	}
}

func TestTopKAccuracyAPI(t *testing.T) {
	train, test := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	a1, err := m.TopKAccuracy(test.X, test.Y, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.TopKAccuracy(test.X, test.Y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1 {
		t.Fatalf("top-2 %.3f below top-1 %.3f", a2, a1)
	}
}

// TestBatchEntryPointsCheckEveryRow pins the width check of the public
// batch entry points to every row, not just the first: a ragged second
// row (short or long) and, for TopKAccuracy, an out-of-range label must
// come back as an error naming the row on both tiers, never as a panic
// or as a silently zero-padded answer.
func TestBatchEntryPointsCheckEveryRow(t *testing.T) {
	train, test := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	q0 := m.Features()
	short := [][]float64{test.X[0], test.X[1][:q0-3]}
	long := [][]float64{test.X[0], append(append([]float64{}, test.X[1]...), 1, 2, 3)}
	y := test.Y[:2]
	entries := map[string]func(mm *disthd.Model, X [][]float64, y []int) error{
		"PredictBatch": func(mm *disthd.Model, X [][]float64, _ []int) error {
			_, err := mm.PredictBatch(X)
			return err
		},
		"Evaluate": func(mm *disthd.Model, X [][]float64, y []int) error {
			_, err := mm.Evaluate(X, y)
			return err
		},
		"TopKAccuracy": func(mm *disthd.Model, X [][]float64, y []int) error {
			_, err := mm.TopKAccuracy(X, y, 2)
			return err
		},
		"Deployed.Evaluate": func(mm *disthd.Model, X [][]float64, y []int) error {
			d, err := mm.Deploy(8)
			if err != nil {
				return err
			}
			_, err = d.Evaluate(X, y)
			return err
		},
	}
	type batch struct {
		name, want string
		X          [][]float64
		y          []int
	}
	batches := []batch{
		{"short row", "row 1 has", short, y},
		{"long row", "row 1 has", long, y},
	}
	for _, tier := range []struct {
		name string
		m    *disthd.Model
	}{{"f32", m}, {"1bit", q}} {
		for entry, call := range entries {
			cases := batches
			if entry == "TopKAccuracy" {
				cases = append(cases,
					batch{"label -1", "row 1 has label -1", test.X[:2], []int{y[0], -1}},
					batch{"label k", "row 1 has label", test.X[:2], []int{y[0], m.Classes()}})
			}
			for _, c := range cases {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s %s %s: panicked: %v", tier.name, entry, c.name, r)
						}
					}()
					err := call(tier.m, c.X, c.y)
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Errorf("%s %s %s: err = %v, want one naming %q", tier.name, entry, c.name, err, c.want)
					}
				}()
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	train, test := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := disthd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	origPred, err := m.PredictBatch(test.X)
	if err != nil {
		t.Fatal(err)
	}
	loadPred, err := loaded.PredictBatch(test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range origPred {
		if origPred[i] != loadPred[i] {
			t.Fatalf("prediction %d changed after round trip: %d -> %d", i, origPred[i], loadPred[i])
		}
	}
	accA, _ := m.Evaluate(test.X, test.Y)
	accB, _ := loaded.Evaluate(test.X, test.Y)
	if math.Abs(accA-accB) > 1e-12 {
		t.Fatalf("accuracy changed after round trip: %v -> %v", accA, accB)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := disthd.Load(strings.NewReader("not a model")); err == nil {
		t.Fatal("garbage accepted by Load")
	}
	if _, err := disthd.Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted by Load")
	}
}

func TestDeployAndInject(t *testing.T) {
	train, test := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleanAcc, err := m.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}

	dep, err := m.Deploy(8)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Bits() != 8 {
		t.Fatalf("Bits = %d", dep.Bits())
	}
	if dep.MemoryBits() != 8*m.Dim()*m.Classes() {
		t.Fatalf("MemoryBits = %d", dep.MemoryBits())
	}
	depAcc, err := dep.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	// 8-bit quantization should cost almost nothing.
	if depAcc < cleanAcc-0.05 {
		t.Fatalf("8-bit deployment lost too much accuracy: %.3f -> %.3f", cleanAcc, depAcc)
	}

	// Heavy injection must hurt; Restore must heal bit-exactly.
	if err := dep.Inject(0.4, 99); err != nil {
		t.Fatal(err)
	}
	hurtAcc, err := dep.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Restore(); err != nil {
		t.Fatal(err)
	}
	healedAcc, err := dep.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if healedAcc != depAcc {
		t.Fatalf("Restore did not heal: %.3f != %.3f", healedAcc, depAcc)
	}
	t.Logf("clean=%.3f deployed=%.3f injured=%.3f", cleanAcc, depAcc, hurtAcc)

	if _, err := m.Deploy(3); err == nil {
		t.Fatal("unsupported precision accepted")
	}
	if _, err := dep.Predict(test.X[0][:3]); err == nil {
		t.Fatal("short input accepted by Deployed.Predict")
	}
}

// The paper's robustness shape on the public API: at the same injection
// rate, a 1-bit deployment degrades no more than an 8-bit one.
func TestLowPrecisionMoreRobust(t *testing.T) {
	train, test := smallTask(t)
	cfg := quickConfig()
	cfg.Dim = 256
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lossAt := func(bits int) float64 {
		dep, err := m.Deploy(bits)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := dep.Evaluate(test.X, test.Y)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		const trials = 3
		for s := uint64(0); s < trials; s++ {
			if err := dep.Restore(); err != nil {
				t.Fatal(err)
			}
			if err := dep.Inject(0.10, 1000+s); err != nil {
				t.Fatal(err)
			}
			acc, err := dep.Evaluate(test.X, test.Y)
			if err != nil {
				t.Fatal(err)
			}
			if loss := clean - acc; loss > 0 {
				total += loss
			}
		}
		return total / trials
	}
	l1 := lossAt(1)
	l8 := lossAt(8)
	t.Logf("avg loss at 10%% flips: 1-bit=%.4f 8-bit=%.4f", l1, l8)
	if l1 > l8+0.05 {
		t.Fatalf("1-bit deployment (loss %.3f) should not be less robust than 8-bit (loss %.3f)", l1, l8)
	}
}

func TestCSVAndSplitAPI(t *testing.T) {
	csv := "1.0,2.0,0\n2.0,1.0,1\n1.1,2.1,0\n2.1,1.1,1\n1.2,2.2,0\n2.2,1.2,1\n"
	d, err := disthd.ReadCSV(strings.NewReader(csv), -1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 || d.Classes != 2 {
		t.Fatalf("CSV parse wrong: n=%d k=%d", d.Len(), d.Classes)
	}
	train, test, err := disthd.Split(d, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != 6 {
		t.Fatal("split lost samples")
	}
	if err := disthd.ZScore(train, test); err != nil {
		t.Fatal(err)
	}
}

func TestZScoreValidation(t *testing.T) {
	a := disthd.DataSplit{X: [][]float64{{1, 2}}, Y: []int{0}, Classes: 2}
	b := disthd.DataSplit{X: [][]float64{{1, 2, 3}}, Y: []int{0}, Classes: 2}
	if err := disthd.ZScore(a, b); err == nil {
		t.Fatal("feature-width mismatch accepted")
	}
}

// TestPackedInference checks the 1-bit deployment against the packed
// query path: the quantized model, which sign-packs the query as well as
// the classes, keeps accuracy near the 1-bit Deployed view, which keeps
// the float query, and injected faults reach the deployed predictions.
func TestPackedInference(t *testing.T) {
	train, test := smallTask(t)
	cfg := quickConfig()
	cfg.Dim = 256
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := m.Deploy(1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	floatAcc, err := dep.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	packedAcc, err := q.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1-bit deployment: float-query acc=%.3f packed-query acc=%.3f", floatAcc, packedAcc)
	if packedAcc < floatAcc-0.15 {
		t.Fatalf("packed inference accuracy %.3f far below float path %.3f", packedAcc, floatAcc)
	}

	// After flipping half the image bits, the deployed predictions change.
	beforeInjury := make([]int, len(test.X))
	for i, x := range test.X {
		if beforeInjury[i], err = dep.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := dep.Inject(0.5, 77); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i, x := range test.X {
		p, err := dep.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if p != beforeInjury[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("the 1-bit deployment did not observe the injected faults")
	}
	if _, err := dep.Predict(test.X[0][:2]); err == nil {
		t.Fatal("short input accepted by Predict")
	}
}

func TestDimensionSaliencyAndClassHypervector(t *testing.T) {
	train, _ := smallTask(t)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	sal := m.DimensionSaliency()
	if len(sal) != m.Dim() {
		t.Fatalf("saliency length %d, want %d", len(sal), m.Dim())
	}
	anyPositive := false
	for _, v := range sal {
		if v < 0 {
			t.Fatalf("negative variance %v", v)
		}
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Fatal("all-zero saliency on a trained model")
	}
	hv, err := m.ClassHypervector(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hv) != m.Dim() {
		t.Fatalf("class hypervector length %d", len(hv))
	}
	// returned slice is a copy
	hv[0] += 100
	hv2, err := m.ClassHypervector(0)
	if err != nil {
		t.Fatal(err)
	}
	if hv2[0] == hv[0] {
		t.Fatal("ClassHypervector leaked internal storage")
	}
	if _, err := m.ClassHypervector(-1); err == nil {
		t.Fatal("negative class accepted")
	}
	if _, err := m.ClassHypervector(m.Classes()); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestReadIDXPublic(t *testing.T) {
	// Build a tiny IDX pair in memory (2 images of 2x2).
	img := &bytes.Buffer{}
	for _, v := range []uint32{0x00000803, 2, 2, 2} {
		if err := binaryWriteU32(img, v); err != nil {
			t.Fatal(err)
		}
	}
	img.Write([]byte{0, 255, 128, 64, 10, 20, 30, 40})
	lab := &bytes.Buffer{}
	for _, v := range []uint32{0x00000801, 2} {
		if err := binaryWriteU32(lab, v); err != nil {
			t.Fatal(err)
		}
	}
	lab.Write([]byte{1, 0})
	d, err := disthd.ReadIDX(img, lab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || len(d.X[0]) != 4 || d.Classes != 10 {
		t.Fatalf("IDX parse wrong: n=%d q=%d k=%d", d.Len(), len(d.X[0]), d.Classes)
	}
	if d.X[0][1] != 1.0 || d.Y[0] != 1 {
		t.Fatal("IDX values wrong")
	}
}

func binaryWriteU32(w *bytes.Buffer, v uint32) error {
	return binaryWrite(w, v)
}

func binaryWrite(w *bytes.Buffer, v uint32) error {
	w.WriteByte(byte(v >> 24))
	w.WriteByte(byte(v >> 16))
	w.WriteByte(byte(v >> 8))
	w.WriteByte(byte(v))
	return nil
}

func TestTrainRejectsNonFiniteAndRagged(t *testing.T) {
	y := []int{0, 1}
	if _, err := disthd.Train([][]float64{{1, 2}, {3, math.NaN()}}, y, 2); err == nil {
		t.Fatal("NaN feature accepted")
	}
	if _, err := disthd.Train([][]float64{{1, 2}, {3, math.Inf(1)}}, y, 2); err == nil {
		t.Fatal("Inf feature accepted")
	}
	if _, err := disthd.Train([][]float64{{1, 2}, {3}}, y, 2); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	train, _ := smallTask(t)
	cfg := quickConfig()
	cfg.Dim = 32
	cfg.Iterations = 2
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version field (little-endian u32 at offset 4)
	if _, err := disthd.Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("wrong version accepted")
	}
	// truncated payload
	if _, err := disthd.Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated model accepted")
	}
}
