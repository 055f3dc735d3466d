package disthd_test

// Integration tests exercising multi-module pipelines end to end through
// the public API: CSV → split → normalize → train → serialize → deploy →
// inject, and the online-update continual-learning path.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	disthd "repro"
)

// syntheticCSV renders a small separable dataset as CSV text.
func syntheticCSV(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		c := i % 3
		base := float64(c) * 4
		// two informative features plus one noise feature derived from i
		noise := float64((i*37)%11)/11 - 0.5
		fmt.Fprintf(&sb, "%.4f,%.4f,%.4f,%d\n", base+noise, base-noise, noise, c)
	}
	return sb.String()
}

func TestPipelineCSVToDeployment(t *testing.T) {
	// 1. Ingest CSV.
	d, err := disthd.ReadCSV(strings.NewReader(syntheticCSV(300)), -1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Classes != 3 {
		t.Fatalf("classes = %d", d.Classes)
	}
	// 2. Split + normalize.
	train, test, err := disthd.Split(d, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := disthd.ZScore(train, test); err != nil {
		t.Fatal(err)
	}
	// 3. Train.
	cfg := disthd.DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 10
	cfg.Seed = 5
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := m.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("pipeline accuracy %.3f too low on separable CSV data", acc)
	}
	// 4. Serialize, reload, re-verify.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := disthd.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 5. Deploy the RELOADED model and inject faults.
	dep, err := loaded.Deploy(1)
	if err != nil {
		t.Fatal(err)
	}
	cleanDep, err := dep.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	if cleanDep < acc-0.15 {
		t.Fatalf("1-bit deployment lost too much: %.3f -> %.3f", acc, cleanDep)
	}
	if err := dep.Inject(0.02, 9); err != nil {
		t.Fatal(err)
	}
	injured, err := dep.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	// 2% flips on a 1-bit model should cost only a few percent.
	if injured < cleanDep-0.15 {
		t.Fatalf("1-bit model too fragile: %.3f -> %.3f at 2%% flips", cleanDep, injured)
	}
}

func TestOnlineUpdateAdaptsToShift(t *testing.T) {
	train, stream, err := disthd.SyntheticBenchmark("PAMAP2", 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 8
	cfg.Seed = 13
	frozen, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	online, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Apply a fixed feature shift to the whole stream and run prequential
	// evaluation: predict, then learn from the label.
	q := len(stream.X[0])
	var frozenOK, onlineOK int
	for i := range stream.X {
		x := make([]float64, q)
		copy(x, stream.X[i])
		for j := 0; j < q/2; j++ {
			x[j] += 1.2
		}
		fp, err := frozen.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		op, err := online.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if fp == stream.Y[i] {
			frozenOK++
		}
		if op == stream.Y[i] {
			onlineOK++
		}
		if _, err := online.Update(x, stream.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	fAcc := float64(frozenOK) / float64(len(stream.X))
	oAcc := float64(onlineOK) / float64(len(stream.X))
	t.Logf("shifted stream: frozen=%.3f online=%.3f", fAcc, oAcc)
	if oAcc < fAcc {
		t.Fatalf("online updates (%.3f) should not underperform a frozen model (%.3f) under shift", oAcc, fAcc)
	}
}

func TestUpdateValidation(t *testing.T) {
	train, _, err := disthd.SyntheticBenchmark("DIABETES", 0.04, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 4
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(train.X[0][:3], 0); err == nil {
		t.Fatal("short input accepted by Update")
	}
	if _, err := m.Update(train.X[0], -1); err == nil {
		t.Fatal("negative label accepted by Update")
	}
	if _, err := m.Update(train.X[0], train.Classes); err == nil {
		t.Fatal("out-of-range label accepted by Update")
	}
	// A sample the model already classifies correctly must not change it.
	pred, err := m.Predict(train.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if pred == train.Y[0] {
		before, err := m.Scores(train.X[0])
		if err != nil {
			t.Fatal(err)
		}
		ok, err := m.Update(train.X[0], train.Y[0])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("Update reported error on a correct sample")
		}
		after, err := m.Scores(train.X[0])
		if err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if math.Abs(before[i]-after[i]) > 1e-12 {
				t.Fatal("correct sample changed the model")
			}
		}
	}
}

// Determinism across the whole public pipeline: identical seeds must give
// identical models, predictions, and serialized bytes.
// trainSnapshot trains a small DistHD model (Algorithm 2 with
// regeneration) on synthetic UCIHAR data and returns its Save bytes.
func trainSnapshot(t *testing.T) []byte {
	t.Helper()
	train, _, err := disthd.SyntheticBenchmark("UCIHAR", 0.04, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 5
	cfg.Seed = 17
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEndToEndDeterminism(t *testing.T) {
	a, b := trainSnapshot(t), trainSnapshot(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeds produced different serialized models")
	}
}

// TestTrainingBitwiseAcrossGOMAXPROCS trains the same model at
// GOMAXPROCS 1 and 4 and requires byte-identical snapshots: how the
// worker pool shards the encode and scoring GEMMs must never change a bit
// of the encoder, the class hypervectors or the regenerated dimensions.
func TestTrainingBitwiseAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := trainSnapshot(t)
	runtime.GOMAXPROCS(4)
	if !bytes.Equal(serial, trainSnapshot(t)) {
		t.Fatal("GOMAXPROCS 1 and 4 trained different serialized models")
	}
}

func TestMergeModelsFederated(t *testing.T) {
	train, test, err := disthd.SyntheticBenchmark("PAMAP2", 0.08, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 8
	cfg.RegenRate = 0 // frozen shared encoder
	cfg.Seed = 23

	const parties = 3
	var models []*disthd.Model
	var soloAcc float64
	for p := 0; p < parties; p++ {
		var sx [][]float64
		var sy []int
		for i := p; i < train.Len(); i += parties {
			sx = append(sx, train.X[i])
			sy = append(sy, train.Y[i])
		}
		m, err := disthd.TrainWithConfig(sx, sy, train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := m.Evaluate(test.X, test.Y)
		if err != nil {
			t.Fatal(err)
		}
		soloAcc += a / parties
		models = append(models, m)
	}
	global, err := disthd.MergeModels(models...)
	if err != nil {
		t.Fatal(err)
	}
	gAcc, err := global.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean solo=%.3f merged=%.3f", soloAcc, gAcc)
	if gAcc < soloAcc-0.05 {
		t.Fatalf("merged model (%.3f) should not underperform the mean shard model (%.3f)", gAcc, soloAcc)
	}
}

func TestMergeModelsValidation(t *testing.T) {
	if _, err := disthd.MergeModels(); err == nil {
		t.Fatal("empty merge accepted")
	}
	train, _, err := disthd.SyntheticBenchmark("DIABETES", 0.04, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 4
	cfg.RegenRate = 0
	cfg.Seed = 29
	a, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different seed → different encoder → must be rejected.
	cfg2 := cfg
	cfg2.Seed = 30
	b, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disthd.MergeModels(a, b); err == nil {
		t.Fatal("models with different encoders merged")
	}
	// Regeneration enabled → encoders diverge → must be rejected.
	cfg3 := cfg
	cfg3.RegenRate = 0.2
	c, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disthd.MergeModels(a, c); err == nil {
		t.Fatal("regenerated-encoder model merged with frozen-encoder model")
	}
	// Different dims → rejected.
	cfg4 := cfg
	cfg4.Dim = 128
	d, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disthd.MergeModels(a, d); err == nil {
		t.Fatal("dimension mismatch merged")
	}
	// Self-merge works and is usable.
	merged, err := disthd.MergeModels(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Predict(train.X[0]); err != nil {
		t.Fatal(err)
	}
}
