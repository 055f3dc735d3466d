package disthd_test

import (
	"sync"
	"testing"

	disthd "repro"
	"repro/serve"
)

// TestIdleSetBoundAcrossBatchers serves traffic through Batchers of more
// replica shapes than the idle set holds — two model shapes, many batch
// sizes, each tier of one shape — and closes each one; the idle set the
// closes fill never holds more than its bound.
func TestIdleSetBoundAcrossBatchers(t *testing.T) {
	var models []*disthd.Model
	for i, dim := range []int{32, 48} {
		train, _, err := disthd.SyntheticBenchmark("DIABETES", 0.05, uint64(7+i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim, cfg.Iterations, cfg.Seed = dim, 2, uint64(7+i)
		m, err := disthd.TrainWithConfig(train.X[:200], train.Y[:200], train.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q, err := m.Quantize1Bit()
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m, q)
	}
	train, _, err := disthd.SyntheticBenchmark("DIABETES", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := train.X[:12]
	for maxBatch := 1; maxBatch <= 2*disthd.MaxIdleReplicas; maxBatch++ {
		for _, m := range models {
			srv, err := serve.New(m, serve.Options{MaxBatch: maxBatch, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			b := srv.Batcher()
			// Three batch callers and coalesced traffic at once lease
			// several replicas, so each close releases more than one.
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					if _, err := b.PredictBatch(rows); err != nil {
						t.Error(err)
					}
				}()
				go func() {
					defer wg.Done()
					if _, err := b.Predict(rows[c]); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			b.Close()
			if n := disthd.IdleReplicas(); n > disthd.MaxIdleReplicas {
				t.Fatalf("idle set holds %d replicas after closing a MaxBatch %d Batcher, bound is %d",
					n, maxBatch, disthd.MaxIdleReplicas)
			}
		}
	}
	if n := disthd.IdleReplicas(); n != disthd.MaxIdleReplicas {
		t.Fatalf("idle set holds %d replicas; the closes never filled it to its bound %d", n, disthd.MaxIdleReplicas)
	}
}
