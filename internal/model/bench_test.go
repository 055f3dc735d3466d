package model

import (
	"fmt"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// benchModel returns a trained-looking model plus an encoded batch.
func benchModel(n, k, d int) (*Model, *mat.Dense, []int) {
	m := New(k, d)
	r := rng.New(3)
	r.FillNorm(m.Weights.Data, 0, 1)
	m.RefreshNorms()
	H := mat.New(n, d)
	r.FillNorm(H.Data, 0, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = int(r.Uint64() % uint64(k))
	}
	return m, H, y
}

// BenchmarkPredictBatch measures batched classification throughput.
func BenchmarkPredictBatch(b *testing.B) {
	m, H, _ := benchModel(128, 26, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(H)
	}
}

// BenchmarkFit measures one adaptive-learning epoch over the batch.
func BenchmarkFit(b *testing.B) {
	m, H, y := benchModel(128, 26, 2048)
	cfg := TrainConfig{LearningRate: 0.05, Epochs: 1, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, H, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityScoreInto measures the steady-state batched scoring
// path with a caller-owned destination (0 allocs/op).
func BenchmarkSimilarityScoreInto(b *testing.B) {
	for _, d := range []int{256, 2048} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			m, H, _ := benchModel(128, 26, d)
			dst := mat.New(128, 26)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ScoreBatchInto(H, dst)
			}
		})
	}
}

// BenchmarkPredictBatchSteadyState measures batched inference with every
// buffer preallocated — the deployment inner loop (0 allocs/op).
func BenchmarkPredictBatchSteadyState(b *testing.B) {
	m, H, _ := benchModel(128, 26, 2048)
	scores := mat.New(128, 26)
	out := make([]int, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchInto(H, scores, out)
	}
}

// BenchmarkFitSteadyState measures one adaptive-learning epoch through the
// reusable Trainer — the DistHD training iteration's inner loop
// (0 allocs/op once the order buffer is warm).
func BenchmarkFitSteadyState(b *testing.B) {
	m, H, y := benchModel(128, 26, 2048)
	tr := NewTrainer(m, 1)
	tr.Epoch(H, y, 0.05) // warm the order buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Epoch(H, y, 0.05)
	}
}
