package mat

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
)

// benchDense returns a deterministic rows×cols matrix of N(0,1) draws.
func benchDense(rows, cols int, seed uint64) *Dense {
	m := New(rows, cols)
	rng.New(seed).FillNorm(m.Data, 0, 1)
	return m
}

// BenchmarkDot measures the scalar dot-product kernel at HDC dimension.
func BenchmarkDot(b *testing.B) {
	a := benchDense(1, 2048, 1).Row(0)
	c := benchDense(1, 2048, 2).Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(a, c)
	}
	_ = sink
}

// BenchmarkArgTopK measures top-k selection at the Algorithm 2 shape:
// k = 10% of D dimensions nominated for regeneration.
func BenchmarkArgTopK(b *testing.B) {
	for _, d := range []int{256, 2048} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			x := benchDense(1, d, 1).Row(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ArgTopK(x, d/10)
			}
		})
	}
}

// BenchmarkMulTInto measures the destination-passing kernel: identical work
// to BenchmarkMulT minus the result allocation (0 allocs/op in steady
// state).
func BenchmarkMulTInto(b *testing.B) {
	for _, d := range []int{256, 2048} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			a := benchDense(128, d, 1)
			bm := benchDense(32, d, 2)
			dst := New(128, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTInto(dst, a, bm)
			}
		})
	}
}

// BenchmarkDotBatch measures the 4-wide micro-kernel against the same
// per-pass work as four BenchmarkDot iterations.
func BenchmarkDotBatch(b *testing.B) {
	rows := benchDense(4, 2048, 1)
	a := benchDense(1, 2048, 2).Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		s0, s1, s2, s3 := DotBatch(a, rows.Row(0), rows.Row(1), rows.Row(2), rows.Row(3))
		sink += s0 + s1 + s2 + s3
	}
	_ = sink
}

// BenchmarkMulTIntoConcurrent measures two callers sharing two cores:
// two goroutines at GOMAXPROCS 2 each computing 64×561 → 1024 products
// (the served encode GEMM of two concurrent /predict_batch frames),
// reported as rows/s over both. It is the kernel row of ParallelFor's
// shard rule: a caller that fans out onto a core the other caller is
// using streams the base twice and waits behind the other's shards.
func BenchmarkMulTIntoConcurrent(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rows = 64
	base := benchDense(1024, 561, 2)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < 2; c++ {
		x := benchDense(rows, 561, uint64(10+c))
		dst := New(rows, 1024)
		n := b.N / 2
		if c == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				MulTInto(dst, x, base)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
