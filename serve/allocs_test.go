//go:build !race

package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

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
	b, err := NewBatcher(s.a, Options{MaxBatch: 8, Replicas: 1})
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
		b, err := NewBatcher(s.a, Options{MaxBatch: 8, MinFill: minFill, MaxDelay: 50 * time.Microsecond, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
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
