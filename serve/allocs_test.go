//go:build !race

package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/serve/wire"
)

// Allocation contracts of the serving hot paths, enforced by plain
// `go test` rather than read off benchmark output. The race detector
// randomly drops sync.Pool items, so these build only without -race.

// TestHandlerAllocs pins the per-request allocations of the prediction
// handlers, steady state, with the net/http machinery factored out: the
// binary /predict_batch path (decode-into-lease) makes 2 and the JSON
// /predict path 12. A change that adds one fails here.
func TestHandlerAllocs(t *testing.T) {
	s := fixtures(t)
	srv, err := New(s.a, Options{MaxBatch: 64, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rows := s.test.X[:16]
	frame, err := wire.AppendMatrixF64(nil, rows, len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	single, err := json.Marshal(predictRequest{X: rows[0]})
	if err != nil {
		t.Fatal(err)
	}
	w := &nullRW{h: make(http.Header)}
	for _, c := range []struct {
		name, path, ctype string
		payload           []byte
		serve             http.HandlerFunc
		want              float64
	}{
		{"binary /predict_batch", "/predict_batch", wire.ContentType, frame, srv.ServePredictBatch, 2},
		{"JSON /predict", "/predict", "application/json", single, srv.ServePredict, 12},
	} {
		body := &replayBody{}
		req := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: c.path},
			Header: http.Header{"Content-Type": []string{c.ctype}},
			Body:   body,
		}
		got := testing.AllocsPerRun(200, func() {
			body.Reset(c.payload)
			c.serve(w, req)
		})
		if got > c.want {
			t.Errorf("%s: %v allocs per request, want at most %v", c.name, got, c.want)
		}
	}
}

// TestPredictStreamAllocs pins the decode-into-lease batch path at zero
// allocations, chunking included.
func TestPredictStreamAllocs(t *testing.T) {
	s := fixtures(t)
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: 8, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rows := s.test.X[:16]
	cols := len(rows[0])
	out := make([]int, len(rows))
	next := 0
	fill := func(dst []float64) error {
		for i := 0; i < len(dst)/cols; i++ {
			copy(dst[i*cols:(i+1)*cols], rows[next])
			next++
		}
		return nil
	}
	got := testing.AllocsPerRun(200, func() {
		next = 0
		if err := b.PredictStream(len(rows), out, fill); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("PredictStream: %v allocs per call, want 0", got)
	}
}

// TestBatcherPredictAllocs pins the coalesced path — submit, worker
// linger and drain, flush through the replica's scratch, answer — at zero
// allocations per steady-state Predict, with MinFill 1 (flush at once)
// and MinFill > 1 (the linger timer fires for a lone caller).
func TestBatcherPredictAllocs(t *testing.T) {
	s := fixtures(t)
	x := s.test.X[0]
	for _, minFill := range []int{1, 4} {
		b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: 8, MinFill: minFill, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		b.linger = 50 * time.Microsecond
		got := testing.AllocsPerRun(200, func() {
			if _, err := b.Predict(x); err != nil {
				t.Fatal(err)
			}
		})
		b.Close()
		if got != 0 {
			t.Errorf("Predict with MinFill %d: %v allocs per call, want 0", minFill, got)
		}
	}
}

// TestBatchAllocsMultiCore pins the 64-row batch path at GOMAXPROCS 2,
// where the GEMMs fan out over the worker pool, for the f32 model and
// its 1-bit tier. testing.AllocsPerRun forces GOMAXPROCS 1 and never sees
// that path, so the count comes from runtime.MemStats: a shard closure
// per GEMM that fans out, two for the f32 model (encode and scoring) and
// one for the 1-bit tier (its f32 projection), plus the f32 model's
// scoring epilogue closure (cosine scaling and argmax, run in the
// shards). ParallelFor's done channels and the pack buffers are reused,
// and the f32 tile's array of B-row pointers stays on the stack. The
// binary handler adds its own 2. Every pin is the exact count.
func TestBatchAllocsMultiCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := fixtures(t)
	q, err := s.a.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = s.test.X[i%len(s.test.X)]
	}
	cols := len(rows[0])
	out := make([]int, len(rows))
	fill := func(dst []float64) error {
		for i, row := range rows {
			copy(dst[i*cols:(i+1)*cols], row)
		}
		return nil
	}
	frame, err := wire.AppendMatrixF64(nil, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	body := &replayBody{}
	req := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/predict_batch"},
		Header: http.Header{"Content-Type": []string{wire.ContentType}},
		Body:   body,
	}
	w := &nullRW{h: make(http.Header)}
	for _, tier := range []struct {
		name            string
		m               *disthd.Model
		stream, handler float64
	}{{"f32", s.a, 3, 5}, {"1bit", q, 1, 3}} {
		srv, err := New(tier.m, Options{MaxBatch: 64, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			f    func()
			want float64
		}{
			{"PredictStream", func() {
				if err := srv.Batcher().PredictStream(len(rows), out, fill); err != nil {
					t.Fatal(err)
				}
			}, tier.stream},
			{"binary /predict_batch", func() {
				body.Reset(frame)
				srv.ServePredictBatch(w, req)
			}, tier.handler},
		} {
			if got := mallocsPerCall(200, c.f); got > c.want {
				t.Errorf("%s %s of 64 rows at GOMAXPROCS 2: %v allocs per call, want at most %v", tier.name, c.name, got, c.want)
			}
		}
		srv.Close()
	}
}

// mallocsPerCall returns the heap allocations per call of f, counted by
// runtime.MemStats over runs calls after two warm-up calls and truncated
// to a whole count as testing.AllocsPerRun truncates it: a sync.Pool keeps
// one item per P out of reach of the other Ps, so a pooled done channel
// is now and then made afresh when goroutines move between cores (a few
// in 1000 calls).
func mallocsPerCall(runs int, f func()) float64 {
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
