package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestHTTPGateRejectsBadChallenger is the end-to-end gate exercise over
// real HTTP under -race: a server with a gated learner receives garbage
// feedback (drifted inputs with random labels) through /learn while client
// goroutines hammer /predict_batch; a /retrain challenger trained on that
// garbage must be REJECTED — the incumbent keeps serving, zero requests
// drop — and /retrain?force=1 must then publish it anyway.
func TestHTTPGateRejectsBadChallenger(t *testing.T) {
	st := fixtures(t)
	srv, ts := newTestServer(t, st.a)
	l, err := NewLearner(srv.Batcher().Swapper(), LearnerOptions{
		RecentWindow: 16,
		Iterations:   2,
		GateMargin:   0.10,
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachLearner(l)
	incumbent := srv.Batcher().Model()

	// Prediction hammer: concurrent live traffic for the whole test; every
	// request must be answered 200.
	stop := make(chan struct{})
	var bad atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rows := [][]float64{st.test.X[(g*31+i)%len(st.test.X)]}
				var out struct {
					Classes []int `json:"classes"`
				}
				if code := postJSON(t, ts.URL+"/predict_batch", map[string][][]float64{"x": rows}, &out); code != http.StatusOK || len(out.Classes) != 1 {
					bad.Add(1)
					return
				}
			}
		}(g)
	}

	// Garbage feedback over real HTTP: drifted inputs, random labels — the
	// worst teacher. A challenger trained on this cannot lead a healthy
	// incumbent by the gate margin on the holdout.
	r := rng.New(77)
	for i := 0; i < 48; i++ {
		x := driftedRow(st.test.X[i%len(st.test.X)], 3.0)
		label := r.Intn(incumbent.Classes())
		if code := postJSON(t, ts.URL+"/learn", map[string]any{"x": x, "label": label}, nil); code != http.StatusOK {
			t.Fatalf("/learn %d returned %d", i, code)
		}
	}

	if code := postJSON(t, ts.URL+"/retrain", struct{}{}, nil); code != http.StatusAccepted {
		t.Fatalf("/retrain returned %d, want 202", code)
	}
	srv.Learner().Wait()

	var snap Snapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(resp, &snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ls := snap.Learner
	if ls == nil || !ls.GateEnabled {
		t.Fatalf("/stats learner gauges missing or gate off: %+v", ls)
	}
	if ls.GateRejects != 1 || ls.Retrains != 0 || ls.GateAccepts != 0 {
		t.Fatalf("gate did not reject the garbage challenger: rejects=%d retrains=%d accepts=%d (last gate %+v)",
			ls.GateRejects, ls.Retrains, ls.GateAccepts, ls.LastGate)
	}
	if ls.LastRejection == nil {
		t.Fatal("/stats missing the last-rejection margin")
	}
	if ls.LastRejection.Margin >= 0.10 {
		t.Fatalf("rejection recorded a passing margin %v", ls.LastRejection.Margin)
	}
	if ls.LastRejection.Published || ls.LastRejection.Forced {
		t.Fatalf("rejection reported as published: %+v", ls.LastRejection)
	}
	if len(ls.ClassAccuracy) != incumbent.Classes() {
		t.Fatalf("/stats class accuracy covers %d classes, model has %d", len(ls.ClassAccuracy), incumbent.Classes())
	}
	if snap.Swaps != 0 || srv.Batcher().Model() != incumbent {
		t.Fatalf("rejected challenger reached the swapper (swaps=%d)", snap.Swaps)
	}

	// The operator's escape hatch: force publishes the same garbage.
	if code := postJSON(t, ts.URL+"/retrain?force=1", struct{}{}, nil); code != http.StatusAccepted {
		t.Fatalf("/retrain?force=1 returned %d, want 202", code)
	}
	srv.Learner().Wait()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Batcher().Model() == incumbent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fsnap := srv.Learner().Snapshot()
	if fsnap.Retrains != 1 || fsnap.GateAccepts != 1 {
		t.Fatalf("forced retrain did not publish: %+v", fsnap)
	}
	if fsnap.LastGate == nil || !fsnap.LastGate.Forced || !fsnap.LastGate.Published {
		t.Fatalf("forced verdict not reported: %+v", fsnap.LastGate)
	}
	if srv.Batcher().Model() == incumbent {
		t.Fatal("forced publish never reached the swapper")
	}

	// The hammer ran through rejection, forced publish and swap: no request
	// may have dropped.
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d predictions failed during gated retraining", n)
	}
}
