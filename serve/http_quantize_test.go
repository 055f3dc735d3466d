package serve

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	disthd "repro"
)

// defaultQuantizeMargin is the margin a /quantize without ?margin=
// judges at.
const defaultQuantizeMargin = disthd.DefaultQuantizeMargin

// quantizeResponse is the /quantize body both outcomes share.
type quantizeResponse struct {
	Published bool        `json:"published"`
	Gate      *GateResult `json:"gate"`
}

// TestHTTPQuantizeGateRejectsAtLowDim is the end-to-end quantization gate
// exercise over real HTTP under -race: at D=64 sign quantization collapses
// accuracy, so a gated POST /quantize must be REJECTED — the f32 champion
// keeps serving, zero in-flight requests drop, and /stats reports the
// rejection with its losing margin. ?force=1 must then publish the same
// collapsed tier anyway (the operator's escape hatch).
func TestHTTPQuantizeGateRejectsAtLowDim(t *testing.T) {
	st := fixtures(t)
	srv, ts := newTestServer(t, st.a)
	l, err := NewLearner(srv.Batcher().Swapper(), LearnerOptions{
		RecentWindow: 16,
		Iterations:   2,
		Seed:         31,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachLearner(l)
	incumbent := srv.Batcher().Model()

	// Truthful labeled feedback over real HTTP builds the holdout slice the
	// quantization gate will judge on.
	for i := 0; i < 60; i++ {
		j := i % len(st.test.X)
		if code := postJSON(t, ts.URL+"/learn", map[string]any{"x": st.test.X[j], "label": st.test.Y[j]}, nil); code != http.StatusOK {
			t.Fatalf("/learn %d returned %d", i, code)
		}
	}

	// Prediction hammer: concurrent live traffic across the rejected and the
	// forced quantization; every request must be answered 200.
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

	var qr quantizeResponse
	if code := postJSON(t, ts.URL+"/quantize", struct{}{}, &qr); code != http.StatusConflict {
		t.Fatalf("/quantize at D=64 returned %d, want 409", code)
	}
	if qr.Published || qr.Gate == nil || qr.Gate.Passed {
		t.Fatalf("low-D quantization was not rejected: %+v", qr)
	}
	if qr.Gate.Margin >= defaultQuantizeMargin {
		t.Fatalf("rejection recorded a passing margin %v", qr.Gate.Margin)
	}
	if srv.Batcher().Model() != incumbent {
		t.Fatal("rejected quantization reached the swapper")
	}

	var snap Snapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = decodeJSON(resp, &snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	qs := snap.Quantization
	if qs == nil {
		t.Fatal("/stats missing the quantization gauges")
	}
	if qs.Active || qs.Publishes != 0 || qs.Rejects != 1 || qs.LastGate == nil {
		t.Fatalf("quantization gauges after rejection: %+v", qs)
	}

	// The escape hatch: force publishes the collapsed tier regardless.
	if code := postJSON(t, ts.URL+"/quantize?force=1", struct{}{}, &qr); code != http.StatusOK {
		t.Fatalf("/quantize?force=1 returned %d, want 200", code)
	}
	if !qr.Published || qr.Gate == nil || !qr.Gate.Forced || qr.Gate.Passed {
		t.Fatalf("forced quantization misreported: %+v", qr)
	}
	if !srv.Batcher().Model().Quantized() {
		t.Fatal("forced quantization never reached the swapper")
	}
	// The frozen champion refuses retrains with a clean 409.
	if code := postJSON(t, ts.URL+"/retrain", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("/retrain on a quantized champion returned %d, want 409", code)
	}
	// And a second quantization has nothing to do.
	if code := postJSON(t, ts.URL+"/quantize", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("double /quantize returned %d, want 409", code)
	}

	// The hammer ran through rejection, forced publish and swap: no request
	// may have dropped.
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d predictions failed during gated quantization", n)
	}
}

// TestHTTPQuantizePublishesAtHealthyDim is the accept leg: at D=1024 the
// packed tier holds accuracy, the gate passes, the quantized successor
// serves /predict_batch, /stats flips the Active gauge, and /model
// negotiates formats (1bit export from the packed champion; f32 answers
// 409 because sign quantization is one-way).
func TestHTTPQuantizePublishesAtHealthyDim(t *testing.T) {
	st := fixtures(t)
	cfg := disthd.DefaultConfig()
	cfg.Dim = 1024
	cfg.Iterations = 3
	cfg.Seed = 7
	m, err := disthd.TrainWithConfig(st.train.X, st.train.Y, st.train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, m)
	l, err := NewLearner(srv.Batcher().Swapper(), LearnerOptions{RecentWindow: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachLearner(l)
	for i := 0; i < 60; i++ {
		j := i % len(st.test.X)
		if code := postJSON(t, ts.URL+"/learn", map[string]any{"x": st.test.X[j], "label": st.test.Y[j]}, nil); code != http.StatusOK {
			t.Fatalf("/learn %d returned %d", i, code)
		}
	}

	// A tolerant operator margin: the holdout slice is ~12 samples, so one
	// sample of disagreement moves accuracy by ~0.08 — the margin must not
	// flake on that granularity while still proving the gate ran.
	var qr quantizeResponse
	if code := postJSON(t, ts.URL+"/quantize?margin=-0.2", struct{}{}, &qr); code != http.StatusOK {
		t.Fatalf("/quantize at D=1024 returned %d, want 200", code)
	}
	if !qr.Published || qr.Gate == nil || !qr.Gate.Passed || qr.Gate.Forced {
		t.Fatalf("healthy-D quantization misreported: %+v", qr)
	}
	if qr.Gate.HoldoutSize == 0 {
		t.Fatal("gate judged on an empty holdout — the feedback window never split")
	}
	if !srv.Batcher().Model().Quantized() {
		t.Fatal("published quantization not serving")
	}

	// The packed tier answers live traffic with sane classes.
	var out struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, ts.URL+"/predict_batch", map[string][][]float64{"x": st.test.X[:8]}, &out); code != http.StatusOK || len(out.Classes) != 8 {
		t.Fatalf("/predict_batch on the packed tier: code %d, %d classes", code, len(out.Classes))
	}
	for i, c := range out.Classes {
		if c < 0 || c >= m.Classes() {
			t.Fatalf("row %d: class %d outside [0,%d)", i, c, m.Classes())
		}
	}

	var snap Snapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = decodeJSON(resp, &snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	qs := snap.Quantization
	if qs == nil || !qs.Active || qs.Publishes != 1 || qs.Rejects != 0 {
		t.Fatalf("quantization gauges after publish: %+v", qs)
	}
	if qs.LastGate == nil || !qs.LastGate.Published {
		t.Fatalf("published verdict not reported: %+v", qs.LastGate)
	}

	// /model format negotiation on the packed champion.
	resp, err = http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DistHD-Format") != "1bit" {
		t.Fatalf("/model on packed champion: code %d format %q", resp.StatusCode, resp.Header.Get("X-DistHD-Format"))
	}
	ld, err := disthd.Load(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exported packed snapshot does not load: %v", err)
	}
	if !ld.Quantized() {
		t.Fatal("exported snapshot lost the packed format")
	}
	resp, err = http.Get(ts.URL + "/model?format=f32")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/model?format=f32 on packed champion returned %d, want 409", resp.StatusCode)
	}
}

// TestHTTPQuantizeWithoutLearner is the ungated leg: without a learner
// there is no holdout to judge on, so POST /quantize publishes the 1-bit
// tier and reports no gate, and the tier answers /predict_batch exactly
// as the quantized model does.
func TestHTTPQuantizeWithoutLearner(t *testing.T) {
	st := fixtures(t)
	srv, ts := newTestServer(t, st.a)
	resp, err := http.Post(ts.URL+"/quantize", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"gate":null,"published":true,"swaps":1}` + "\n"; resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("/quantize without a learner: %d %q, want 200 %q", resp.StatusCode, body, want)
	}
	q := srv.Batcher().Model()
	if !q.Quantized() {
		t.Fatal("ungated quantization not serving")
	}
	rows := st.test.X[:8]
	want, err := q.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, ts.URL+"/predict_batch", map[string][][]float64{"x": rows}, &out); code != http.StatusOK {
		t.Fatalf("/predict_batch on the 1-bit tier returned %d", code)
	}
	for i := range want {
		if out.Classes[i] != want[i] {
			t.Fatalf("row %d: served %d, 1-bit model says %d", i, out.Classes[i], want[i])
		}
	}
	qs := srv.Stats().Quantization
	if !qs.Active || qs.Publishes != 1 || qs.Rejects != 0 || qs.LastGate != nil {
		t.Fatalf("quantization gauges after an ungated publish: %+v", qs)
	}
}

// TestHTTPModelFormatNegotiationF32 covers the f32-champion side of
// /model: the default export stays f32, ?format=1bit quantizes on the fly
// without publishing, and an unknown format is a 400.
func TestHTTPModelFormatNegotiationF32(t *testing.T) {
	st := fixtures(t)
	srv, ts := newTestServer(t, st.a)
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	resp, _ := get("/model")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DistHD-Format") != "f32" {
		t.Fatalf("/model default: code %d format %q", resp.StatusCode, resp.Header.Get("X-DistHD-Format"))
	}
	resp, body := get("/model?format=1bit")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DistHD-Format") != "1bit" {
		t.Fatalf("/model?format=1bit: code %d format %q", resp.StatusCode, resp.Header.Get("X-DistHD-Format"))
	}
	ld, err := disthd.Load(bytes.NewReader(body))
	if err != nil || !ld.Quantized() {
		t.Fatalf("on-the-fly 1bit export broken: err %v", err)
	}
	if srv.Batcher().Model().Quantized() {
		t.Fatal("a 1bit export must not publish the quantized tier")
	}
	resp, _ = get("/model?format=int7")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/model?format=int7 returned %d, want 400", resp.StatusCode)
	}
}
