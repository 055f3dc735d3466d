package registry

import (
	"fmt"
	"sync"
	"testing"

	disthd "repro"
	"repro/serve"
)

// regBench lazily trains one UCIHAR-shaped model per dimensionality,
// matching the serve package's benchmark fixtures so throughput numbers
// line up across packages.
var (
	regBenchMu sync.Mutex
	regBench   = map[int]*tenantFixture{}
)

func benchFixtures(b testing.TB, dim int) *tenantFixture {
	b.Helper()
	regBenchMu.Lock()
	defer regBenchMu.Unlock()
	if f, ok := regBench[dim]; ok {
		return f
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
	rows := test.X
	if len(rows) > 64 {
		rows = rows[:64]
	}
	f := &tenantFixture{name: fmt.Sprintf("bench-%d", dim), m: m, rows: rows}
	regBench[dim] = f
	return f
}

// benchOpts sizes a tenant's batcher for the 64-row benchmark batch.
func benchOpts() serve.Options {
	return serve.Options{MaxBatch: 64, Replicas: 1}
}

// BenchmarkRegistryPredictBatch is the acceptance benchmark: the
// per-tenant batched predict path through registry dispatch —
// Acquire, decode-into-lease PredictStream (what the binary
// /t/{model}/predict_batch handler runs), Release — must stay 0 allocs/op
// steady-state, with two other resident tenants in the pool to prove
// multi-tenancy adds no per-request cost.
func BenchmarkRegistryPredictBatch(b *testing.B) {
	for _, dim := range []int{512, 1024} {
		f := benchFixtures(b, dim)
		b.Run(fmt.Sprintf("D=%d", dim), func(b *testing.B) {
			reg, err := New(3)
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			small := fmt.Sprintf("small-%d", dim)
			for _, t := range []struct {
				id string
				m  *disthd.Model
			}{{f.name, f.m}, {small + "a", f.m}, {small + "b", f.m}} {
				if err := reg.Install(t.id, t.m, Spec{Options: benchOpts()}); err != nil {
					b.Fatal(err)
				}
			}
			rows := f.rows
			features := f.m.Features()
			out := make([]int, len(rows))
			// The fill closure is hoisted out of the loop, as the wire
			// handler's pooled decoder is; per-iteration it only copies.
			fill := func(dst []float64) error {
				for i, r := range rows {
					copy(dst[i*features:(i+1)*features], r)
				}
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := reg.Acquire(f.name)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Server().Batcher().PredictStream(len(rows), out, fill); err != nil {
					b.Fatal(err)
				}
				reg.Release(h)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkRegistryDispatch isolates the registry's per-request overhead:
// one Acquire/Release round trip on a resident tenant — the only cost
// multi-tenant routing adds over the single-model server. Must be 0
// allocs/op and mutex-bound.
func BenchmarkRegistryDispatch(b *testing.B) {
	f := benchFixtures(b, 512)
	reg, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(f.name, f.m, Spec{Options: benchOpts()}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := reg.Acquire(f.name)
		if err != nil {
			b.Fatal(err)
		}
		reg.Release(h)
	}
}

// wakeParkRegistry installs two tenants of f's model, learning when
// learner is non-nil, into a one-slot pool, and returns the frame fill
// the cycle sends.
func wakeParkRegistry(tb testing.TB, f *tenantFixture, learner *serve.LearnerOptions) (*Registry, [2]string, func([]float64) error) {
	reg, err := New(1)
	if err != nil {
		tb.Fatal(err)
	}
	ids := [2]string{"wp-a", "wp-b"}
	for _, id := range ids {
		if err := reg.Install(id, f.m, Spec{Options: benchOpts(), Learner: learner}); err != nil {
			tb.Fatal(err)
		}
	}
	features := f.m.Features()
	fill := func(dst []float64) error {
		for i, r := range f.rows {
			copy(dst[i*features:(i+1)*features], r)
		}
		return nil
	}
	return reg, ids, fill
}

// wakeParkLearner is the learner the learning wake/park cycle carries:
// a full-size feedback window (512 rows of 561 features, 2.2 MiB).
var wakeParkLearner = &serve.LearnerOptions{Window: 512, Seed: 3}

// BenchmarkRegistryWakePark prices an eviction cycle: two tenants
// alternating through a one-slot pool, so every Acquire parks one tenant
// (its Batcher's idle replicas to the idle set; none here, since no
// request leases one) and wakes the other (pool accounting only), without
// and with a learner on the tenants. The serving units last the
// registration, so the cycle builds nothing; what a cold hit still pays
// is its first lease of a replica, which wakeParkCycle's frame measures.
func BenchmarkRegistryWakePark(b *testing.B) {
	f := benchFixtures(b, 512)
	for _, c := range []struct {
		name    string
		learner *serve.LearnerOptions
	}{{"plain", nil}, {"learner", wakeParkLearner}} {
		b.Run(c.name, func(b *testing.B) {
			reg, ids, _ := wakeParkRegistry(b, f, c.learner)
			defer reg.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := reg.Acquire(ids[i%2])
				if err != nil {
					b.Fatal(err)
				}
				reg.Release(h)
			}
		})
	}
}
