package disthd

import (
	"math"
	"testing"
	"unsafe"
)

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

// idleLen returns how many replicas the idle set holds, and how many
// bytes of scratch.
func idleLen() (n, bytes int) {
	idleSet.mu.Lock()
	defer idleSet.mu.Unlock()
	return len(idleSet.reps), idleSet.bytes
}

// TestReplicaIdleSetBound releases replicas of more shapes than the idle
// set holds, several of each, and checks the set never grows past
// maxIdleReplicas or maxIdleBytes, keeps the shapes released last, leaves
// a replica past the byte bound to the collector, and that no idle
// replica pins a model or a packed encoder.
func TestReplicaIdleSetBound(t *testing.T) {
	m, _, _ := trainQuantFixture(t, 64)
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	for batch := 1; batch <= 3*maxIdleReplicas; batch++ {
		for _, mm := range []*Model{m, q} {
			r, err := mm.NewReplica(batch)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
			if n, bytes := idleLen(); n > maxIdleReplicas || bytes > maxIdleBytes {
				t.Fatalf("idle set holds %d replicas of %d bytes, bounds are %d and %d", n, bytes, maxIdleReplicas, maxIdleBytes)
			}
		}
	}
	if n, _ := idleLen(); n != maxIdleReplicas {
		t.Fatalf("idle set holds %d replicas after %d releases, want the bound %d", n, 6*maxIdleReplicas, maxIdleReplicas)
	}
	idleSet.mu.Lock()
	for _, r := range idleSet.reps {
		if r.penc != nil || r.pencSrc != nil || !r.idle {
			idleSet.mu.Unlock()
			t.Fatal("an idle replica still holds a packed encoder, pinning its model, or is not marked idle")
		}
	}
	idleSet.mu.Unlock()
	// The set keeps the latest shapes: the last batch size comes back, the
	// first was dropped long ago.
	last := 3 * maxIdleReplicas
	if takeIdle(m.Features(), m.Dim(), m.Classes(), last) == nil {
		t.Fatal("the shape released last is not in the idle set")
	}
	if takeIdle(m.Features(), m.Dim(), m.Classes(), 1) != nil {
		t.Fatal("the idle set kept the shape released first past its bound")
	}
	// A replica as large as the byte bound on its own takes the whole set;
	// one larger is not kept at all.
	perRow := newReplica(m.Features(), m.Dim(), m.Classes(), 1).bytes
	whole := newReplica(m.Features(), m.Dim(), m.Classes(), maxIdleBytes/perRow)
	whole.Release()
	if n, bytes := idleLen(); n != 1 || bytes != whole.bytes {
		t.Fatalf("after releasing a %d-byte replica the idle set holds %d replicas of %d bytes, want it alone",
			whole.bytes, n, bytes)
	}
	huge := newReplica(m.Features(), m.Dim(), m.Classes(), maxIdleBytes/perRow+8)
	huge.Release()
	if takeIdle(m.Features(), m.Dim(), m.Classes(), huge.maxBatch) != nil {
		t.Fatalf("the idle set kept a %d-byte replica past its %d-byte bound", huge.bytes, maxIdleBytes)
	}
	r, err := m.NewReplica(2)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a replica released twice did not panic")
		}
	}()
	r.Release()
}

// TestReplicaReuseAcrossTiersBitwise releases a replica after serving one
// tier and takes it back for the other tier of the same shape, both ways,
// and checks it answers bit-identically to a fresh replica: the same
// classes, the same f64 scores or integer agreement scores.
func TestReplicaReuseAcrossTiersBitwise(t *testing.T) {
	m, _, test := trainQuantFixture(t, 96)
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	X := test.X[:min(len(test.X), 24)]
	k := m.Classes()
	for _, c := range []struct {
		name          string
		before, after *Model
	}{{"1bit->f32", q, m}, {"f32->1bit", m, q}} {
		t.Run(c.name, func(t *testing.T) {
			const batch = 13 // a shape nothing else in the test binary leases
			used, err := c.before.NewReplica(batch)
			if err != nil {
				t.Fatal(err)
			}
			dirty := make([]int, len(X))
			if _, err := used.PredictBatch(c.before, X, dirty); err != nil {
				t.Fatal(err)
			}
			used.Release()
			reused, err := c.after.NewReplica(batch)
			if err != nil {
				t.Fatal(err)
			}
			if reused != used {
				t.Fatal("NewReplica built a new replica with one of its shape idle")
			}
			fresh := newReplica(m.Features(), m.Dim(), k, batch)
			if c.after.Quantized() {
				fresh.bindPacked(c.after)
			}
			got, want := make([]int, len(X)), make([]int, len(X))
			if _, err := reused.PredictBatch(c.after, X, got); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.PredictBatch(c.after, X, want); err != nil {
				t.Fatal(err)
			}
			// The last chunk's scores are still in the scratch.
			n := len(X) % batch
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d: reused replica says %d, fresh %d", i, got[i], want[i])
				}
			}
			for i := 0; i < n*k; i++ {
				if c.after.Quantized() && reused.iscores[i] != fresh.iscores[i] {
					t.Fatalf("agreement score %d: reused %d, fresh %d", i, reused.iscores[i], fresh.iscores[i])
				}
				if !c.after.Quantized() && math.Float64bits(reused.sbuf[i]) != math.Float64bits(fresh.sbuf[i]) {
					t.Fatalf("score %d: reused %v, fresh %v", i, reused.sbuf[i], fresh.sbuf[i])
				}
			}
			reused.Release()
		})
	}
}

// TestReplicaScratchCapped pins the float64 scratch layout: the input,
// encoded and score buffers are adjacent cuts of one allocation, each
// capped at its length, so an append to one reallocates instead of
// overwriting the next.
func TestReplicaScratchCapped(t *testing.T) {
	r := newReplica(3, 5, 2, 4)
	bufs := [][]float64{r.xbuf, r.hbuf, r.sbuf}
	for i, want := range []int{4 * 3, 4 * 5, 4 * 2} {
		b := bufs[i]
		if len(b) != want || cap(b) != want {
			t.Fatalf("buffer %d: len %d cap %d, want %d", i, len(b), cap(b), want)
		}
		if i > 0 {
			prev := bufs[i-1]
			if unsafe.Pointer(&b[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), 8*len(prev)) {
				t.Fatalf("buffer %d does not follow buffer %d in one allocation", i, i-1)
			}
		}
	}
}
