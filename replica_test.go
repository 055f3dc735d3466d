package disthd

import "testing"

// TestReplicaEntryPointsMatchModel checks that both Replica batch entry
// points — PredictBatch over the caller's rows, and InputScratch +
// PredictScratch over rows written into the lease — classify exactly like
// Model.PredictBatch on each serving tier, chunking at a non-divisor
// MaxBatch, and allocate nothing once warm.
func TestReplicaEntryPointsMatchModel(t *testing.T) {
	m, _, test := trainQuantFixture(t, 512)
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatalf("Quantize1Bit: %v", err)
	}
	X := test.X[:min(len(test.X), 64)]
	for _, tier := range []struct {
		name string
		m    *Model
	}{{"f32", m}, {"1bit", q}} {
		t.Run(tier.name, func(t *testing.T) {
			want, err := tier.m.PredictBatch(X)
			if err != nil {
				t.Fatalf("Model.PredictBatch: %v", err)
			}
			rep, err := tier.m.NewReplica(7) // non-divisor chunk size: exercises chunking
			if err != nil {
				t.Fatalf("NewReplica: %v", err)
			}
			batch := make([]int, len(X))
			predictBatch := func() {
				if n, err := rep.PredictBatch(tier.m, X, batch); err != nil || n != len(X) {
					t.Fatalf("replica PredictBatch: %d rows, %v", n, err)
				}
			}
			scratch := make([]int, len(X))
			predictScratch := func() {
				for done := 0; done < len(X); {
					n := min(len(X)-done, rep.MaxBatch())
					dst, err := rep.InputScratch(n)
					if err != nil {
						t.Fatalf("InputScratch: %v", err)
					}
					for i, row := range X[done : done+n] {
						copy(dst[i*len(row):], row)
					}
					// out runs past the chunk, as a caller's whole-batch slice does.
					if err := rep.PredictScratch(tier.m, n, scratch[done:]); err != nil {
						t.Fatalf("PredictScratch: %v", err)
					}
					done += n
				}
			}
			predictBatch()
			predictScratch()
			for i := range want {
				if batch[i] != want[i] || scratch[i] != want[i] {
					t.Fatalf("row %d: PredictBatch %d, PredictScratch %d, model %d", i, batch[i], scratch[i], want[i])
				}
			}
			for _, entry := range []struct {
				name string
				f    func()
			}{{"PredictBatch", predictBatch}, {"PredictScratch", predictScratch}} {
				if allocs := testing.AllocsPerRun(20, entry.f); allocs != 0 {
					t.Errorf("%s: %v allocs per call after warm-up, want 0", entry.name, allocs)
				}
			}
		})
	}
}
