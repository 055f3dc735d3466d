package core

import (
	"testing"

	"repro/internal/encoding"
	"repro/internal/mat"
)

// mustEqualFloats fails when two slices differ at any bit.
func mustEqualFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %v != %v", what, i, got[i], want[i])
		}
	}
}

// TestPipelineMatchesTrainBitwise pins the refactor contract: driving the
// staged Pipeline by hand — Encode, then per iteration Adapt / Score /
// Regenerate (or SkipScore) — produces exactly the model the Train
// entry point produces from the same seed and config: identical class
// weights, identical encoder state, identical stats. The manual drive uses
// the fine-grained stage methods rather than Step/Run, so any divergence
// between the re-enterable surface and the one-shot path fails here.
func TestPipelineMatchesTrainBitwise(t *testing.T) {
	train, _ := toyData(t, 7)
	for _, cfg := range []Config{
		func() Config {
			c := DefaultConfig()
			c.Dim = 128
			c.Iterations = 8
			return c
		}(),
		func() Config {
			c := DefaultConfig()
			c.Dim = 96
			c.Iterations = 12
			c.Patience = 2 // exercise the early-stop path
			c.RegenPatience = 2
			return c
		}(),
	} {
		encA := encoding.NewRBF(train.Features(), cfg.Dim, 0xabc)
		encB := encoding.NewRBF(train.Features(), cfg.Dim, 0xabc)

		clfA, statsA, err := Train(encA, train.X, train.Y, train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}

		p, err := NewPipeline(encB, train.X, train.Y, train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Encode()
		for !p.Done() {
			p.Adapt()
			if p.Done() {
				break
			}
			if p.WillRegenerate() {
				p.Regenerate(p.Score())
			} else {
				p.SkipScore()
			}
		}
		clfB, statsB := p.Finish()

		mustEqualFloats(t, "class weights", clfB.Model.Weights.Data, clfA.Model.Weights.Data)
		baseA, phaseA, _ := clfA.Enc.(*encoding.RBF).Params()
		baseB, phaseB, _ := clfB.Enc.(*encoding.RBF).Params()
		mustEqualFloats(t, "encoder base", baseB.Data, baseA.Data)
		mustEqualFloats(t, "encoder phase", phaseB, phaseA)

		if len(statsA.Iters) != len(statsB.Iters) {
			t.Fatalf("iteration count %d != %d", len(statsB.Iters), len(statsA.Iters))
		}
		for i := range statsA.Iters {
			if statsA.Iters[i] != statsB.Iters[i] {
				t.Fatalf("iter %d stats differ: %+v != %+v", i, statsB.Iters[i], statsA.Iters[i])
			}
		}
		if statsA.TotalRegenerated != statsB.TotalRegenerated ||
			statsA.EffectiveDim != statsB.EffectiveDim ||
			statsA.Converged != statsB.Converged {
			t.Fatalf("summary stats differ: %+v != %+v", statsB, statsA)
		}
	}
}

// TestPipelineStepMatchesRun checks the coarse drive (Step) against Run.
func TestPipelineStepMatchesRun(t *testing.T) {
	train, _ := toyData(t, 3)
	cfg := DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 6

	pA, err := NewPipeline(encoding.NewRBF(train.Features(), cfg.Dim, 5), train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clfA, _ := pA.Run()

	pB, err := NewPipeline(encoding.NewRBF(train.Features(), cfg.Dim, 5), train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !pB.Step() {
		steps++
	}
	clfB, _ := pB.Finish()
	if steps >= cfg.Iterations {
		t.Fatalf("Step reported done after %d steps for %d iterations", steps, cfg.Iterations)
	}
	mustEqualFloats(t, "class weights", clfB.Model.Weights.Data, clfA.Model.Weights.Data)
}

// TestPipelineStageOrder pins the stage machine: methods called out of
// order panic, and the stage accessor tracks the cycle.
func TestPipelineStageOrder(t *testing.T) {
	train, _ := toyData(t, 11)
	cfg := DefaultConfig()
	cfg.Dim = 32
	cfg.Iterations = 3
	p, err := NewPipeline(encoding.NewRBF(train.Features(), cfg.Dim, 1), train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.stage != StageEncode {
		t.Fatalf("fresh pipeline at stage %v", p.stage)
	}
	mustPanic(t, "Adapt before Encode", func() { p.Adapt() })
	p.Encode()
	if p.stage != StageAdapt {
		t.Fatalf("after Encode at stage %v", p.stage)
	}
	mustPanic(t, "Score before Adapt", func() { p.Score() })
	p.Adapt()
	if p.stage != StageScore {
		t.Fatalf("after Adapt at stage %v", p.stage)
	}
	mustPanic(t, "Regenerate before Score", func() { p.Regenerate(DimStats{}) })
	ds := p.Score()
	if p.stage != StageRegenerate {
		t.Fatalf("after Score at stage %v", p.stage)
	}
	p.Regenerate(ds)
	if p.stage != StageAdapt || p.iter != 1 {
		t.Fatalf("after Regenerate at stage %v, iter %d", p.stage, p.iter)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

// TestResumeWarmRetrains checks the warm-start path: Resume over a trained
// classifier keeps its weights (no cold re-initialization), accepts a new
// window, runs regeneration rounds, and the retrained model still
// classifies the original task.
func TestResumeWarmRetrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 8
	clf, _, train, test := trainToy(t, cfg, 2)
	before := clf.Accuracy(test.X, test.Y)

	// Warm-resume over a window of the training data with a short budget.
	wcfg := cfg
	wcfg.Iterations = 3
	n := train.N() / 2
	winX := mat.View(n, train.Features(), train.X.Data[:n*train.Features()])
	p, err := Resume(clf, winX, train.Y[:n], wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.m != clf.Model {
		t.Fatal("Resume must train the classifier's own model in place")
	}
	clf2, stats := p.Run()
	if clf2.Model != clf.Model {
		t.Fatal("warm retrain returned a different model object")
	}
	if len(stats.Iters) == 0 || len(stats.Iters) > wcfg.Iterations {
		t.Fatalf("warm retrain ran %d iterations, budget %d", len(stats.Iters), wcfg.Iterations)
	}
	after := clf2.Accuracy(test.X, test.Y)
	if after < before-0.10 {
		t.Fatalf("warm retrain collapsed accuracy: %.3f -> %.3f", before, after)
	}
}

// TestResumeValidates pins Resume's admission checks.
func TestResumeValidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 3
	clf, _, train, _ := trainToy(t, cfg, 4)

	if _, err := Resume(nil, train.X, train.Y, cfg); err == nil {
		t.Fatal("nil classifier accepted")
	}
	bad := cfg
	bad.Dim = 32
	if _, err := Resume(clf, train.X, train.Y, bad); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := Resume(clf, train.X, train.Y[:len(train.Y)-1], cfg); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	badY := make([]int, train.N())
	badY[0] = train.Classes
	if _, err := Resume(clf, train.X, badY, cfg); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

// TestCloneDetachedIsolates pins the clone contract behind background
// retraining: mutating the clone (training, regeneration) never changes the
// original's predictions or parameters.
func TestCloneDetachedIsolates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dim = 64
	cfg.Iterations = 4
	clf, _, train, test := trainToy(t, cfg, 9)
	wantW := append([]float64(nil), clf.Model.Weights.Data...)
	base, phase, _ := clf.Enc.(*encoding.RBF).Params()
	wantBase := append([]float64(nil), base.Data...)
	wantPhase := append([]float64(nil), phase...)
	before := clf.Accuracy(test.X, test.Y)

	dup := clf.CloneDetached(123)
	wcfg := cfg
	wcfg.Iterations = 3
	p, err := Resume(dup, train.X, train.Y, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Run()

	mustEqualFloats(t, "original weights", clf.Model.Weights.Data, wantW)
	base2, phase2, _ := clf.Enc.(*encoding.RBF).Params()
	mustEqualFloats(t, "original encoder base", base2.Data, wantBase)
	mustEqualFloats(t, "original encoder phase", phase2, wantPhase)
	if got := clf.Accuracy(test.X, test.Y); got != before {
		t.Fatalf("original accuracy moved %.4f -> %.4f after clone retrain", before, got)
	}
}
