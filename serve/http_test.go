package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	disthd "repro"
)

// newTestServer spins a Server over an httptest listener.
func newTestServer(t *testing.T, m *disthd.Model) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(m, Options{MaxBatch: 8, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// predictRequest is the /predict JSON body.
type predictRequest struct {
	X []float64 `json:"x"`
}

// predictBatchRequest is the /predict_batch JSON body.
type predictBatchRequest struct {
	X [][]float64 `json:"x"`
}

// postJSON posts v and decodes the response body into out.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPPredict(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)

	var got struct {
		Class int `json:"class"`
	}
	if code := postJSON(t, ts.URL+"/predict", predictRequest{X: s.test.X[0]}, &got); code != http.StatusOK {
		t.Fatalf("/predict status %d", code)
	}
	want, err := s.a.Predict(s.test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != want {
		t.Fatalf("/predict class %d, model says %d", got.Class, want)
	}

	// Malformed width -> 400 with an error body.
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/predict", predictRequest{X: []float64{1}}, &e); code != http.StatusBadRequest {
		t.Fatalf("bad width status %d", code)
	}
	if e.Error == "" {
		t.Fatal("error body empty")
	}
}

func TestHTTPPredictBatch(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)

	rows := s.test.X[:5]
	var got struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, ts.URL+"/predict_batch", predictBatchRequest{X: rows}, &got); code != http.StatusOK {
		t.Fatalf("/predict_batch status %d", code)
	}
	want, err := s.a.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Classes) != len(want) {
		t.Fatalf("got %d classes want %d", len(got.Classes), len(want))
	}
	for i := range want {
		if got.Classes[i] != want[i] {
			t.Fatalf("row %d: got %d want %d", i, got.Classes[i], want[i])
		}
	}

	// Empty batch is a legal no-op.
	if code := postJSON(t, ts.URL+"/predict_batch", predictBatchRequest{}, &got); code != http.StatusOK {
		t.Fatalf("empty batch status %d", code)
	}
	if len(got.Classes) != 0 {
		t.Fatalf("empty batch returned %v", got.Classes)
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status   string `json:"status"`
		Features int    `json:"features"`
		Dim      int    `json:"dim"`
		Classes  int    `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Features != s.a.Features() || hz.Dim != s.a.Dim() || hz.Classes != s.a.Classes() {
		t.Fatalf("healthz %+v does not match model", hz)
	}

	// Generate one request, then check /stats reflects it.
	if code := postJSON(t, ts.URL+"/predict", predictRequest{X: s.test.X[0]}, nil); code != http.StatusOK {
		t.Fatalf("warmup predict status %d", code)
	}
	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 1 || snap.Batches != 1 {
		t.Fatalf("stats after one request: %+v", snap)
	}
	if snap.LatencyMsP50 <= 0 {
		t.Fatalf("latency histogram empty: %+v", snap)
	}
}

func TestHTTPSwap(t *testing.T) {
	s := fixtures(t)
	srv, ts := newTestServer(t, s.a)

	// Swap in the compatible sibling model via its Save snapshot.
	var buf bytes.Buffer
	if err := s.b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/swap", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/swap status %d", resp.StatusCode)
	}
	if got := srv.Batcher().Swapper().Swaps(); got != 1 {
		t.Fatalf("swaps=%d after one swap", got)
	}

	// Garbage payload -> 400 (it is not a model at all), model untouched.
	resp2, err := http.Post(ts.URL+"/swap", "application/octet-stream", bytes.NewReader([]byte("not a model")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage swap status %d, want 400", resp2.StatusCode)
	}
	if got := srv.Batcher().Swapper().Swaps(); got != 1 {
		t.Fatalf("failed swap counted: %d", got)
	}

	// A well-formed model of the wrong shape -> 409 Conflict.
	cfg := disthd.DefaultConfig()
	cfg.Dim = 32
	cfg.Iterations = 2
	cfg.Seed = 11
	narrow, err := disthd.TrainWithConfig(s.train.X, s.train.Y, s.train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nbuf bytes.Buffer
	if err := narrow.Save(&nbuf); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.Post(ts.URL+"/swap", "application/octet-stream", &nbuf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("shape-mismatch swap status %d, want 409", resp3.StatusCode)
	}

	// Serving still works after the swap cycle.
	if code := postJSON(t, ts.URL+"/predict", predictRequest{X: s.test.X[0]}, nil); code != http.StatusOK {
		t.Fatalf("predict after swap status %d", code)
	}
}
