package mat

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// naiveMulT is the reference implementation the blocked kernel is pinned to.
func naiveMulT(a, b *Dense) *Dense {
	c := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randDense(rows, cols int, seed uint64) *Dense {
	m := New(rows, cols)
	rng.New(seed).FillNorm(m.Data, 0, 1)
	return m
}

func maxAbsDiff(a, b *Dense) float64 {
	var worst float64
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestMulTIntoMatchesNaive pins the blocked kernel to the naive reference
// across shapes that exercise every edge: dimensions that are not multiples
// of the 2×4 register tile or the row block, shared dimensions straddling
// the kernelKC panel boundary, single rows/columns, and the empty shared
// dimension.
func TestMulTIntoMatchesNaive(t *testing.T) {
	shapes := []struct{ n, d, q int }{
		{1, 1, 1},
		{2, 4, 8},
		{3, 5, 7},                        // nothing divides the tiles
		{kernelMR + 1, kernelNR + 1, 33}, // one past each block
		{2*kernelMR - 1, 2*kernelNR - 1, kernelKC - 1},
		{4, 6, kernelKC},        // exactly one panel
		{5, 9, kernelKC + 1},    // panel boundary straddle
		{3, 2, 2*kernelKC + 17}, // three panels, ragged tail
		{17, 1, 129},            // single output column
		{1, 13, 257},            // single output row
		{6, 8, 0},               // empty shared dimension
		{128, 32, 512},          // benchmark shape
	}
	for _, s := range shapes {
		a := randDense(s.n, s.q, uint64(3*s.n+5*s.d+7*s.q+1))
		b := randDense(s.d, s.q, uint64(11*s.n+13*s.d+17*s.q+2))
		want := naiveMulT(a, b)

		got := MulTInto(New(s.n, s.d), a, b)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("MulTInto %dx%d·(%dx%d)ᵀ: max |diff| = %g", s.n, s.q, s.d, s.q, d)
		}

		// Into semantics must overwrite stale destination contents.
		dirty := New(s.n, s.d)
		dirty.Fill(math.Pi)
		MulTInto(dirty, a, b)
		if d := maxAbsDiff(dirty, want); d > 1e-12 {
			t.Errorf("MulTInto with dirty dst %dx%d: max |diff| = %g", s.n, s.d, d)
		}

	}
}

// TestPanelDotReproducesMulTIntoBitwise checks the contract the encoders
// rely on: recomputing any single element of a blocked product with
// PanelDot yields the exact bits the batch kernel produced, for every tile
// position (2×4 interior, 1×4 odd row, sequential remainder columns) and
// across panel boundaries.
func TestPanelDotReproducesMulTIntoBitwise(t *testing.T) {
	for _, s := range []struct{ n, d, q int }{
		{5, 7, 33},                      // odd everything
		{kernelMR + 3, 9, kernelKC + 7}, // panel straddle
		{3, 3, 2 * kernelKC},            // remainder-only columns, two panels
	} {
		a := randDense(s.n, s.q, uint64(s.n+s.d+s.q))
		b := randDense(s.d, s.q, uint64(s.n*s.d*s.q+1))
		c := MulTInto(New(s.n, s.d), a, b)
		for i := 0; i < s.n; i++ {
			for j := 0; j < s.d; j++ {
				if got := PanelDot(a.Row(i), b.Row(j)); got != c.At(i, j) {
					t.Fatalf("shape %+v element (%d,%d): PanelDot %v != kernel %v",
						s, i, j, got, c.At(i, j))
				}
			}
		}
	}
}

// TestMulTIntoFusedPost checks the fused epilogue runs exactly once per row
// on the completed row.
func TestMulTIntoFusedPost(t *testing.T) {
	a := randDense(11, 65, 1)
	b := randDense(6, 65, 2)
	want := MulTInto(New(11, 6), a, b)
	visited := make([]int, 11)
	got := MulTIntoFused(New(11, 6), a, b, func(i int, row []float64) {
		visited[i]++
		for j := range row {
			row[j] *= 2
		}
	})
	for i, c := range visited {
		if c != 1 {
			t.Fatalf("row %d visited %d times", i, c)
		}
	}
	for i := 0; i < 11; i++ {
		for j := 0; j < 6; j++ {
			if got.At(i, j) != 2*want.At(i, j) {
				t.Fatalf("fused post not applied at (%d,%d)", i, j)
			}
		}
	}
}

// TestDotBatchMatchesDot pins the 4-wide micro-kernel to four scalar dots.
func TestDotBatchMatchesDot(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1023} {
		a := randDense(1, n, uint64(n+1)).Row(0)
		rows := randDense(4, n, uint64(n+2))
		s0, s1, s2, s3 := DotBatch(a, rows.Row(0), rows.Row(1), rows.Row(2), rows.Row(3))
		for i, got := range []float64{s0, s1, s2, s3} {
			want := Dot(a, rows.Row(i))
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("DotBatch n=%d lane %d: got %g, want %g", n, i, got, want)
			}
		}
	}
}

// TestArgTopKMatchesSortReference pins the quickselect implementation to the
// original full-sort reference, including the value-then-index tie order.
func TestArgTopKMatchesSortReference(t *testing.T) {
	sortRef := func(x []float64, k int) []int {
		if k > len(x) {
			k = len(x)
		}
		if k <= 0 {
			return nil
		}
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if x[idx[a]] != x[idx[b]] {
				return x[idx[a]] > x[idx[b]]
			}
			return idx[a] < idx[b]
		})
		return idx[:k]
	}

	r := rng.New(42)
	cases := [][]float64{
		{1},
		{2, 1},
		{1, 1, 1, 1, 1},       // all ties: index order must win
		{3, 1, 3, 2, 3, 0, 3}, // interleaved ties
		{-1, -2, -3, -4},
		{0, 0, 1, 0, 0, 1, 0, 0, 1},
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + int(r.Uint64()%500)
		x := make([]float64, n)
		r.FillNorm(x, 0, 1)
		// Quantize half the trials so duplicates are common.
		if trial%2 == 0 {
			for i := range x {
				x[i] = math.Round(x[i] * 2)
			}
		}
		cases = append(cases, x)
	}
	for ci, x := range cases {
		for _, k := range []int{0, 1, 2, len(x) / 3, len(x) - 1, len(x), len(x) + 5} {
			got := ArgTopK(x, k)
			want := sortRef(x, k)
			if len(got) != len(want) {
				t.Fatalf("case %d k=%d: got %d indices, want %d", ci, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("case %d k=%d: got %v, want %v", ci, k, got, want)
				}
			}
		}
	}
}

// TestColSumsMatchesSerial pins the sharded reduction to a serial loop.
func TestColSumsMatchesSerial(t *testing.T) {
	for _, s := range []struct{ r, c int }{{1, 1}, {3, 7}, {64, 129}, {513, 33}} {
		m := randDense(s.r, s.c, uint64(s.r*1000+s.c))
		want := make([]float64, s.c)
		for i := 0; i < s.r; i++ {
			for j, v := range m.Row(i) {
				want[j] += v
			}
		}
		got := ChunkedColReduce(s.r, s.c, make([]float64, s.c), func(c int, p []float64) {
			lo, hi := ChunkSpan(c, s.r)
			for i := lo; i < hi; i++ {
				for j, v := range m.Row(i) {
					p[j] += v
				}
			}
		})
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("column sums %dx%d col %d: got %g, want %g", s.r, s.c, j, got[j], want[j])
			}
		}
	}
}

// TestParallelForPool exercises the worker pool: full coverage of the index
// range, no overlap, and survival of nested invocations.
func TestParallelForPool(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		seen := make([]int32, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
	// Nested ParallelFor must complete (saturated pool degrades inline).
	total := make([]int32, 64)
	ParallelFor(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * 8
			ParallelFor(8, func(l, h int) {
				for j := l; j < h; j++ {
					total[base+j]++
				}
			})
		}
	})
	for i, c := range total {
		if c != 1 {
			t.Fatalf("nested: index %d visited %d times", i, c)
		}
	}
}

// TestParallelForConcurrentNested reproduces the pool-starvation scenario:
// several goroutines each run a nested ParallelFor, enough to occupy every
// worker with outer shards. The waiters must steal queued inner shards to
// make progress; a pool that parks waiters unconditionally deadlocks here.
func TestParallelForConcurrentNested(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const callers = 4
	finished := make(chan [64]int32, callers)
	for c := 0; c < callers; c++ {
		go func() {
			var seen [64]int32
			ParallelFor(8, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					base := i * 8
					ParallelFor(8, func(l, h int) {
						for j := l; j < h; j++ {
							atomic.AddInt32(&seen[base+j], 1)
						}
					})
				}
			})
			finished <- seen
		}()
	}
	for c := 0; c < callers; c++ {
		select {
		case seen := <-finished:
			for i, v := range seen {
				if v != 1 {
					t.Fatalf("caller %d: index %d visited %d times", c, i, v)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent nested ParallelFor deadlocked")
		}
	}
}

// TestPfShards pins ParallelFor's shard rule: max(1, GOMAXPROCS ÷ calls
// in flight) shards, at most one per item.
func TestPfShards(t *testing.T) {
	for _, c := range []struct{ n, procs, inFlight, want int }{
		{64, 1, 1, 1},  // one core: inline
		{64, 2, 1, 2},  // a lone caller fans out
		{64, 2, 2, 1},  // two callers on two cores: each inline
		{64, 2, 3, 1},  // more callers than cores
		{64, 4, 1, 4},  // a lone caller on four cores
		{64, 4, 2, 2},  // two callers share four cores
		{64, 4, 3, 1},  // 4 ÷ 3 rounds down
		{64, 8, 3, 2},  // 8 ÷ 3 rounds down
		{1, 4, 1, 1},   // never more shards than items
		{3, 8, 1, 3},   // never more shards than items
		{64, 4, 64, 1}, // nested and concurrent calls pile up: inline
	} {
		if got := pfShards(c.n, c.procs, c.inFlight); got != c.want {
			t.Errorf("pfShards(n=%d, procs=%d, inFlight=%d) = %d, want %d", c.n, c.procs, c.inFlight, got, c.want)
		}
	}
}

// TestParallelForSaturatedPool occupies every pool worker with a task
// that blocks until released, then runs concurrent callers of nested
// ParallelFor loops: with no worker free, each must finish on its own
// goroutine (running its shards inline or stealing them back from the
// queue), cover its range exactly once, and leave the in-flight count
// at zero. Run it under -race.
func TestParallelForSaturatedPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	pfOnce.Do(startPool)
	workers := cap(pfTasks) / 8
	release := make(chan struct{})
	started := make(chan struct{}, workers)
	blocked := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		pfTasks <- pfTask{body: func(int, int) {
			started <- struct{}{}
			<-release
		}, done: blocked}
	}
	for i := 0; i < workers; i++ {
		<-started
	}

	const callers = 6
	finished := make(chan [256]int32, callers)
	for c := 0; c < callers; c++ {
		go func() {
			var seen [256]int32
			ParallelFor(16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					base := i * 16
					ParallelFor(16, func(l, h int) {
						for j := l; j < h; j++ {
							atomic.AddInt32(&seen[base+j], 1)
						}
					})
				}
			})
			finished <- seen
		}()
	}
	for c := 0; c < callers; c++ {
		select {
		case seen := <-finished:
			for i, v := range seen {
				if v != 1 {
					t.Errorf("caller %d: index %d visited %d times", c, i, v)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("ParallelFor did not finish with every pool worker busy")
		}
	}
	close(release)
	for i := 0; i < workers; i++ {
		<-blocked
	}
	if n := pfInFlight.Load(); n != 0 {
		t.Fatalf("%d ParallelFor calls still counted in flight", n)
	}
}

// TestScratchPool checks length/reuse semantics of the pooled buffers.
func TestScratchPool(t *testing.T) {
	s := GetScratch(100)
	if len(s.Buf) != 100 {
		t.Fatalf("GetScratch(100) length %d", len(s.Buf))
	}
	s.Release()
	z := GetScratchZeroed(50)
	if len(z.Buf) != 50 {
		t.Fatalf("GetScratchZeroed(50) length %d", len(z.Buf))
	}
	for i, v := range z.Buf {
		if v != 0 {
			t.Fatalf("GetScratchZeroed: index %d = %g", i, v)
		}
	}
	z.Release()
}
