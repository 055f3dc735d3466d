package encoding

import (
	"fmt"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// benchBatch returns a deterministic n×q feature batch.
func benchBatch(n, q int, seed uint64) *mat.Dense {
	X := mat.New(n, q)
	rng.New(seed).FillNorm(X.Data, 0, 1)
	return X
}

// BenchmarkEncodeBatch measures the RBF batch encoder at the paper's
// feature width (q ≈ 617 for ISOLET; 512 here) across dimensionalities.
func BenchmarkEncodeBatch(b *testing.B) {
	for _, d := range []int{512, 2048} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			const n, q = 128, 512
			e := NewRBF(q, d, 7)
			X := benchBatch(n, q, 11)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EncodeBatch(X)
			}
			b.ReportMetric(float64(n), "samples/op")
		})
	}
}

// BenchmarkEncodeSingle measures per-sample encoding latency (the
// inference-path encode) at D = 2048.
func BenchmarkEncodeSingle(b *testing.B) {
	const q, d = 512, 2048
	e := NewRBF(q, d, 7)
	x := benchBatch(1, q, 11).Row(0)
	dst := make([]float64, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(x, dst)
	}
}

// BenchmarkEncodeBatchInto measures the fused batch encoder with a
// caller-owned destination — the steady-state re-encode path (0 allocs/op)
// — at 128 rows × 512 features → D=2048, and at the served shape of
// perfbench's predict-batch workload: 64-row frames of 561 features
// (UCIHAR) → D=1024.
func BenchmarkEncodeBatchInto(b *testing.B) {
	for _, sh := range []struct{ n, q, d int }{{128, 512, 2048}, {64, 561, 1024}} {
		b.Run(fmt.Sprintf("%dx%d/D=%d", sh.n, sh.q, sh.d), func(b *testing.B) {
			e := NewRBF(sh.q, sh.d, 7)
			X := benchBatch(sh.n, sh.q, 11)
			dst := mat.New(sh.n, sh.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EncodeBatchInto(X, dst)
			}
			b.ReportMetric(float64(sh.n), "samples/op")
		})
	}
}

// BenchmarkEncodeDimsBatch measures the cheap-retrain column patch at the
// DistHD shape: 10% of D=2048 dimensions regenerated.
func BenchmarkEncodeDimsBatch(b *testing.B) {
	const n, q, d = 128, 512, 2048
	e := NewRBF(q, d, 7)
	X := benchBatch(n, q, 11)
	H := e.EncodeBatch(X)
	dims := make([]int, d/10)
	for i := range dims {
		dims[i] = i * 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeDimsBatch(X, dims, H)
	}
}
