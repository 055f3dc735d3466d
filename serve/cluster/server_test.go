package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/serve/internal/edge"
)

// newTestServer wires a Server over sim workers behind an httptest
// listener.
func newTestServer(t *testing.T, workers map[string]*simWorker, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	c, _ := newTestCoordinator(t, workers, mod)
	s := NewServer(c)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response into out (when non-nil).
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

func TestServerPredictEndpoints(t *testing.T) {
	f := fixtures(t)
	m := f.shards[0]
	_, ts := newTestServer(t, map[string]*simWorker{"w0": sim(m)}, func(cfg *Config) {
		cfg.Workers = []string{"w0"}
		cfg.Fallback = m
	})

	var one struct {
		Class int `json:"class"`
	}
	if code := postJSON(t, ts.URL+"/predict", map[string]any{"x": f.test.X[0]}, &one); code != http.StatusOK {
		t.Fatalf("/predict status %d", code)
	}
	want, err := m.Predict(f.test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if one.Class != want {
		t.Fatalf("/predict class %d, want %d", one.Class, want)
	}

	rows := f.test.X[:5]
	var batch struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, ts.URL+"/predict_batch", map[string]any{"x": rows}, &batch); code != http.StatusOK {
		t.Fatalf("/predict_batch status %d", code)
	}
	wantCls, err := m.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Classes) != len(wantCls) {
		t.Fatalf("/predict_batch answered %d classes, want %d", len(batch.Classes), len(wantCls))
	}
	for i := range wantCls {
		if batch.Classes[i] != wantCls[i] {
			t.Fatalf("row %d: class %d, want %d", i, batch.Classes[i], wantCls[i])
		}
	}
}

func TestServerErrorMapping(t *testing.T) {
	f := fixtures(t)
	m := f.shards[0]
	_, ts := newTestServer(t, map[string]*simWorker{"w0": sim(m)}, func(cfg *Config) {
		cfg.Workers = []string{"w0"}
		cfg.Fallback = m
	})

	// Malformed JSON is a 400.
	resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// A wrong-width row is the caller's fault: 400, not a drop.
	if code := postJSON(t, ts.URL+"/predict", map[string]any{"x": []float64{1, 2}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad row: status %d, want 400", code)
	}

	// A body past the limit is a 413. The payload is valid JSON shape but
	// padded beyond edge.MaxJSONBody with whitespace, so only the limit can
	// reject it.
	huge := append(bytes.Repeat([]byte{' '}, edge.MaxJSONBody+1), []byte(`{"x":[]}`)...)
	resp, err = http.Post(ts.URL+"/predict_batch", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestServerHealthzDegradedAndStrict(t *testing.T) {
	f := fixtures(t)
	m := f.shards[0]
	w0, w1, w2 := sim(m), sim(m), sim(m)
	srv, ts := newTestServer(t, map[string]*simWorker{"w0": w0, "w1": w1, "w2": w2}, func(cfg *Config) {
		cfg.Workers = []string{"w0", "w1", "w2"}
		cfg.Quorum = 2
		cfg.Fallback = m
		cfg.Breaker = BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour}
	})

	var hz struct {
		Status    string `json:"status"`
		Available int    `json:"available"`
		Quorum    int    `json:"quorum"`
		Fallback  bool   `json:"fallback"`
		Workers   []struct {
			Addr    string `json:"addr"`
			Breaker string `json:"breaker"`
		} `json:"workers"`
	}
	get := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		hz.Workers = nil
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	if code := get(); code != http.StatusOK || hz.Status != "ok" || hz.Available != 3 || !hz.Fallback {
		t.Fatalf("healthy cluster: code %d payload %+v", code, hz)
	}

	// Kill two workers and burn their failure budget through traffic: the
	// cluster drops below quorum and /healthz must say so.
	w1.mu.Lock()
	w1.dead = true
	w1.mu.Unlock()
	w2.mu.Lock()
	w2.dead = true
	w2.mu.Unlock()
	for i := 0; i < 4; i++ {
		if code := postJSON(t, ts.URL+"/predict_batch", map[string]any{"x": f.test.X[:6]}, nil); code != http.StatusOK {
			t.Fatalf("batch %d during degradation: status %d (the fallback must keep answering)", i, code)
		}
	}
	if code := get(); code != http.StatusOK || hz.Status != "degraded" || hz.Available != 1 {
		t.Fatalf("below quorum: code %d payload %+v, want 200 + degraded", code, hz)
	}
	openWorkers := 0
	for _, w := range hz.Workers {
		if w.Breaker == "open" {
			openWorkers++
		}
	}
	if openWorkers != 2 {
		t.Fatalf("%d open breakers in /healthz, want 2: %+v", openWorkers, hz.Workers)
	}

	srv.SetStrictHealth(true)
	if code := get(); code != http.StatusServiceUnavailable || hz.Status != "degraded" {
		t.Fatalf("strict degraded: code %d status %q, want 503 degraded", code, hz.Status)
	}
}

func TestServerStatsAndMerge(t *testing.T) {
	f := fixtures(t)
	_, ts := newTestServer(t, map[string]*simWorker{
		"w0": sim(f.shards[0]), "w1": sim(f.shards[1]),
	}, func(cfg *Config) {
		cfg.Workers = []string{"w0", "w1"}
	})

	var rep MergeReport
	if code := postJSON(t, ts.URL+"/merge", struct{}{}, &rep); code != http.StatusOK {
		t.Fatalf("/merge status %d", code)
	}
	if !rep.Published || len(rep.Workers) != 2 {
		t.Fatalf("merge report %+v, want both shards published", rep)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Merges != 1 || snap.MergePublished != 1 || !snap.HasFallback || len(snap.Workers) != 2 {
		t.Fatalf("stats %+v, want one published merge and a held fallback", snap)
	}
}
