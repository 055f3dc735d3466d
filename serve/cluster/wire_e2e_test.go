package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/wire"
)

// liveWorker stands up one real serving worker over HTTP for the wire
// interop tests (the test-sized sibling of bench_test.go's benchWorker).
func liveWorker(t testing.TB, m *disthd.Model) string {
	t.Helper()
	srv, err := serve.New(m, serve.Options{MaxBatch: 32, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// newLiveCluster stands up three real workers and a cluster Server in
// front of them.
func newLiveCluster(t *testing.T) *httptest.Server {
	t.Helper()
	f := fixtures(t)
	addrs := []string{
		liveWorker(t, f.shards[0]),
		liveWorker(t, f.shards[1]),
		liveWorker(t, f.shards[2]),
	}
	c, err := New(Config{
		Workers:     addrs,
		CallTimeout: 2 * time.Second,
		Fallback:    f.shards[0],
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := NewServer(c)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postBatchJSON runs a JSON /predict_batch and returns the classes.
func postBatchJSON(t *testing.T, url string, rows [][]float64) []int {
	t.Helper()
	var out struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, url+"/predict_batch", map[string]any{"x": rows}, &out); code != http.StatusOK {
		t.Fatalf("JSON /predict_batch status %d", code)
	}
	return out.Classes
}

// postBatchBinary runs a binary /predict_batch and returns the classes.
func postBatchBinary(t *testing.T, url string, rows [][]float64) []int {
	t.Helper()
	frame, err := wire.AppendMatrixF64(nil, rows, len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict_batch", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary /predict_batch status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary response content type %q", ct)
	}
	classes, err := wire.ReadClasses(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response frame: %v", err)
	}
	return classes
}

// TestClusterMixedFormatInterop is the client<->coordinator interop E2E:
// a JSON and a binary client must get the same classes over real HTTP end
// to end while the coordinator speaks binary frames to its workers —
// format negotiation happens per hop, invisibly to the other hop.
func TestClusterMixedFormatInterop(t *testing.T) {
	f := fixtures(t)
	rows := f.test.X[:13]
	ts := newLiveCluster(t)
	var want []int
	for _, client := range []string{"json", "binary"} {
		var got []int
		if client == "binary" {
			got = postBatchBinary(t, ts.URL, rows)
		} else {
			got = postBatchJSON(t, ts.URL, rows)
		}
		if want == nil {
			want = got
			if len(want) != len(rows) {
				t.Fatalf("got %d classes for %d rows", len(want), len(rows))
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("client=%s: classes %v, want %v", client, got, want)
		}
	}
}

// TestClusterWireSingleAndStats covers the binary /predict hop through a
// live cluster plus the per-format counters in the coordinator's /stats.
func TestClusterWireSingleAndStats(t *testing.T) {
	f := fixtures(t)
	ts := newLiveCluster(t)

	var one struct {
		Class int `json:"class"`
	}
	if code := postJSON(t, ts.URL+"/predict", map[string]any{"x": f.test.X[0]}, &one); code != http.StatusOK {
		t.Fatalf("JSON /predict status %d", code)
	}
	got := postBatchBinary(t, ts.URL, f.test.X[:1])
	if len(got) != 1 || got[0] != one.Class {
		t.Fatalf("binary /predict_batch of one row = %v, JSON /predict says %d", got, one.Class)
	}

	// Malformed binary -> JSON 400 with an error body.
	resp, err := http.Post(ts.URL+"/predict_batch", wire.ContentType, bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame status %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("malformed frame error body %q", body)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// 1 JSON predict; binary: 1 good batch + 1 malformed.
	if snap.WireJSONRequests != 1 || snap.WireBinaryRequests != 2 {
		t.Fatalf("wire counters json=%d binary=%d, want 1/2", snap.WireJSONRequests, snap.WireBinaryRequests)
	}
}

// TestTransportBinaryMatchesJSON pins the transport's binary frames to
// the worker model's own PredictBatch against one live worker,
// prepared-payload path included.
func TestTransportBinaryMatchesJSON(t *testing.T) {
	f := fixtures(t)
	addr := liveWorker(t, f.shards[0])
	rows := f.test.X[:9]
	ctx := context.Background()

	want, err := f.shards[0].PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	bt := NewHTTPTransport()
	got, err := predictDirect(ctx, bt, addr, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("transport answered %v, the worker model %v", got, want)
	}

	// A prepared payload must survive reuse: run the same PreparedBatch
	// twice, as a retry would. It must not keep the rows it was built
	// from either, so they are cleared before the first attempt.
	scratch := make([][]float64, len(rows))
	for i, r := range rows {
		scratch[i] = slices.Clone(r)
	}
	p, err := bt.PrepareBatch(scratch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range scratch {
		clear(r)
	}
	for attempt := 0; attempt < 2; attempt++ {
		again, err := bt.PredictPrepared(ctx, addr, p)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		for i := range again {
			if again[i] != want[i] {
				t.Fatalf("attempt %d class[%d]: %d, want %d", attempt, i, again[i], want[i])
			}
		}
	}
}
