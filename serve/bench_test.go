package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disthd "repro"
)

// benchModels lazily trains one paper-shaped model (UCIHAR-like: 561
// features) per hypervector dimensionality, shared across the serving
// benchmarks.
var (
	benchMu     sync.Mutex
	benchModels = map[int]*benchState{}
)

// benchState is one trained model plus query rows.
type benchState struct {
	m    *disthd.Model
	rows [][]float64
}

// benchFixtures returns the shared benchmark model for a dimensionality.
func benchFixtures(b *testing.B, dim int) *benchState {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchModels[dim]; ok {
		return s
	}
	train, test, err := disthd.SyntheticBenchmark("UCIHAR", 0.10, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = dim
	cfg.Iterations = 2
	cfg.Seed = 42
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := &benchState{m: m, rows: test.X}
	benchModels[dim] = s
	return s
}

// benchGrid is the (dimensionality, concurrency) sweep both serving
// benchmarks run, so their sub-benchmark names line up for comparison.
var benchGrid = []struct{ dim, conc int }{
	{512, 1}, {512, 32}, {512, 64},
	{1024, 32}, {1024, 64},
	{2048, 32}, {2048, 64},
}

// BenchmarkServePerRequest is the baseline the Batcher must beat: every
// concurrent caller runs Model.Predict itself — per-call encode buffers,
// matrix-vector encoding, no batching.
func BenchmarkServePerRequest(b *testing.B) {
	for _, g := range benchGrid {
		s := benchFixtures(b, g.dim)
		b.Run(fmt.Sprintf("D=%d/conc=%d", g.dim, g.conc), func(b *testing.B) {
			b.SetParallelism(g.conc)
			var i atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					x := s.rows[int(i.Add(1))%len(s.rows)]
					if _, err := s.m.Predict(x); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkServeBatched is the same closed-loop workload through the
// coalescing Batcher: single-request callers, batched-GEMM execution.
// MinFill is set to half the closed-loop population — the tuning a serving
// operator would pick for a known concurrency level.
func BenchmarkServeBatched(b *testing.B) {
	for _, g := range benchGrid {
		s := benchFixtures(b, g.dim)
		b.Run(fmt.Sprintf("D=%d/conc=%d", g.dim, g.conc), func(b *testing.B) {
			bat, err := NewBatcher(swapperFor(b, s.m), Options{
				MaxBatch: 64,
				MinFill:  minFill(g.conc),
				Replicas: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer bat.Close()
			b.SetParallelism(g.conc)
			var i atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					x := s.rows[int(i.Add(1))%len(s.rows)]
					if _, err := bat.Predict(x); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			snap := bat.Stats()
			b.ReportMetric(snap.MeanBatchRows, "rows/batch")
		})
	}
}

// BenchmarkServeQuantizedBatch is the f32-vs-1bit comparison behind the
// PERF.md quantization table: the same 64-row /predict_batch workload
// through the Replica batch kernel — exactly what Batcher.PredictBatch
// runs per call — once on the float champion and once on its
// sign-quantized successor. Both tiers must report 0 allocs/op (the
// replica leases all scratch up front, packed included), and the 1-bit
// tier must deliver the XOR+popcount speedup that justifies the gate's
// tolerated accuracy loss; the gap widens with D as the batched GEMM's
// f32 traffic grows 32× faster than the packed words.
func BenchmarkServeQuantizedBatch(b *testing.B) {
	for _, dim := range []int{1024, 2048, 4096} {
		s := benchFixtures(b, dim)
		q, err := s.m.Quantize1Bit()
		if err != nil {
			b.Fatal(err)
		}
		rows := s.rows
		if len(rows) > 64 {
			rows = rows[:64]
		}
		for _, tier := range []struct {
			name string
			m    *disthd.Model
		}{{"f32", s.m}, {"1bit", q}} {
			b.Run(fmt.Sprintf("D=%d/%s", dim, tier.name), func(b *testing.B) {
				rep, err := tier.m.NewReplica(64)
				if err != nil {
					b.Fatal(err)
				}
				out := make([]int, len(rows))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rep.PredictBatch(tier.m, rows, out); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// minFill picks the linger threshold for a concurrency level: wait for
// half the closed-loop population, so the worker cannot starve itself by
// draining before the clients are rescheduled.
func minFill(conc int) int {
	if conc < 2 {
		return 1
	}
	return conc / 2
}

// BenchmarkServeBatchedWithLearner is BenchmarkServeBatched's D=512
// workload with a Learner attached and labeled feedback trickling in from
// a side goroutine — the configuration the drift-adaptive server runs in.
// The report must match the learner-free benchmark: the learner lives
// entirely off the flush path, so allocs/op stays 0 on the serving side.
func BenchmarkServeBatchedWithLearner(b *testing.B) {
	const conc = 32
	s := benchFixtures(b, 512)
	bat, err := NewBatcher(swapperFor(b, s.m), Options{
		MaxBatch: 64,
		MinFill:  minFill(conc),
		Replicas: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bat.Close()
	learner, err := NewLearner(bat.Swapper(), LearnerOptions{
		RecentWindow: 64, Iterations: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x := s.rows[i%len(s.rows)]
			if _, err := learner.Feed(x, i%s.m.Classes()); err != nil {
				b.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	b.SetParallelism(conc)
	var i atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			x := s.rows[int(i.Add(1))%len(s.rows)]
			if _, err := bat.Predict(x); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
	learner.Wait()
	snap := bat.Stats()
	b.ReportMetric(snap.MeanBatchRows, "rows/batch")
}
