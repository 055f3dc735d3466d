package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"

	disthd "repro"
	"repro/serve/wire"
)

// postFrame posts one binary frame and returns the status, body, and
// response content type.
func postFrame(t *testing.T, url string, frame []byte) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Content-Type")
}

// decodeClassesFrame parses a classes frame out of a response body.
func decodeClassesFrame(t *testing.T, body []byte) []int {
	t.Helper()
	classes, err := wire.ReadClasses(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response frame: %v", err)
	}
	return classes
}

// wireEquivalence drives the same batch through JSON and both binary
// matrix encodings against one live server and requires identical
// classes.
func wireEquivalence(t *testing.T, tsURL string, rows [][]float64) {
	t.Helper()
	var jsonOut struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, tsURL+"/predict_batch", predictBatchRequest{X: rows}, &jsonOut); code != http.StatusOK {
		t.Fatalf("JSON /predict_batch status %d", code)
	}
	cols := len(rows[0])
	for _, enc := range []struct {
		name  string
		frame func() ([]byte, error)
	}{
		{"f64", func() ([]byte, error) { return wire.AppendMatrixF64(nil, rows, cols) }},
		{"f32", func() ([]byte, error) { return wire.AppendMatrixF32(nil, rows, cols) }},
	} {
		frame, err := enc.frame()
		if err != nil {
			t.Fatal(err)
		}
		code, body, ct := postFrame(t, tsURL+"/predict_batch", frame)
		if code != http.StatusOK {
			t.Fatalf("%s binary /predict_batch status %d: %s", enc.name, code, body)
		}
		if ct != wire.ContentType {
			t.Fatalf("%s binary response content type %q", enc.name, ct)
		}
		got := decodeClassesFrame(t, body)
		if len(got) != len(jsonOut.Classes) {
			t.Fatalf("%s binary answered %d classes, JSON %d", enc.name, len(got), len(jsonOut.Classes))
		}
		for i := range got {
			if got[i] != jsonOut.Classes[i] {
				t.Fatalf("%s binary class[%d] = %d, JSON says %d", enc.name, i, got[i], jsonOut.Classes[i])
			}
		}
	}
}

func TestWirePredictBatchEquivalence(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)
	wireEquivalence(t, ts.URL, s.test.X[:12])
}

func TestWirePredictBatchEquivalenceQuantized(t *testing.T) {
	s := fixtures(t)
	q, err := s.a.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, q)
	wireEquivalence(t, ts.URL, s.test.X[:12])
}

func TestWirePredictSingleEquivalence(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)
	for _, x := range s.test.X[:4] {
		var jsonOut struct {
			Class int `json:"class"`
		}
		if code := postJSON(t, ts.URL+"/predict", predictRequest{X: x}, &jsonOut); code != http.StatusOK {
			t.Fatalf("JSON /predict status %d", code)
		}
		frame, err := wire.AppendMatrixF64(nil, [][]float64{x}, len(x))
		if err != nil {
			t.Fatal(err)
		}
		code, body, _ := postFrame(t, ts.URL+"/predict", frame)
		if code != http.StatusOK {
			t.Fatalf("binary /predict status %d: %s", code, body)
		}
		got := decodeClassesFrame(t, body)
		if len(got) != 1 || got[0] != jsonOut.Class {
			t.Fatalf("binary /predict = %v, JSON says %d", got, jsonOut.Class)
		}
	}
}

func TestWireLearnRoundTrip(t *testing.T) {
	st := fixtures(t)
	_, url := newLearnerServer(t, LearnerOptions{RecentWindow: 8, Iterations: 1})
	frame := wire.AppendLearn(nil, st.test.X[0], st.test.Y[0])
	code, body, ct := postFrame(t, url+"/learn", frame)
	if code != http.StatusOK {
		t.Fatalf("binary /learn status %d: %s", code, body)
	}
	if ct != wire.ContentType {
		t.Fatalf("binary /learn response content type %q", ct)
	}
	d := wire.NewDecoder(bytes.NewReader(body))
	typ, err := d.Next()
	if err != nil || typ != wire.TypeFeedAck {
		t.Fatalf("response frame = %v, %v; want feed-ack", typ, err)
	}
	ack, err := d.FeedAck()
	if err != nil {
		t.Fatal(err)
	}
	if ack.WindowAccuracy != 0 && ack.WindowAccuracy != 1 {
		t.Fatalf("first feedback window accuracy %v", ack.WindowAccuracy)
	}
	// Malformed feedback (wrong width) must still answer a JSON 400.
	bad := wire.AppendLearn(nil, st.test.X[0][:2], 0)
	if code, _, _ := postFrame(t, url+"/learn", bad); code != http.StatusBadRequest {
		t.Fatalf("malformed binary /learn status %d, want 400", code)
	}
}

func TestWireMalformedRequests(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)
	cols := len(s.test.X[0])
	good, err := wire.AppendMatrixF64(nil, s.test.X[:2], cols)
	if err != nil {
		t.Fatal(err)
	}
	wrongCols, err := wire.AppendMatrixF64(nil, [][]float64{{1, 2, 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"garbage":         []byte("not a frame at all"),
		"truncated":       good[:len(good)-5],
		"corrupt magic":   append([]byte("XXXX"), good[4:]...),
		"wrong type":      wire.AppendClasses(nil, []int{1}),
		"column mismatch": wrongCols,
		"empty body":      {},
	}
	for name, frame := range cases {
		code, body, ct := postFrame(t, ts.URL+"/predict_batch", frame)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %q)", name, code, body)
		}
		if ct != "application/json" {
			t.Errorf("%s: error content type %q, want JSON", name, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", name, body)
		}
	}
}

func TestWireStatsCounters(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)
	rows := s.test.X[:3]
	frame, err := wire.AppendMatrixF64(nil, rows, len(rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, body, _ := postFrame(t, ts.URL+"/predict_batch", frame); code != http.StatusOK {
			t.Fatalf("binary status %d: %s", code, body)
		}
	}
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/predict_batch", predictBatchRequest{X: rows}, nil); code != http.StatusOK {
			t.Fatalf("JSON status %d", code)
		}
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
	if snap.WireBinaryRequests != 2 || snap.WireJSONRequests != 3 {
		t.Fatalf("wire counters binary=%d json=%d, want 2/3", snap.WireBinaryRequests, snap.WireJSONRequests)
	}
}

// TestPredictStreamMatchesPredictBatch pins both Batcher batch entry
// points, the decode-into-lease PredictStream and PredictBatch on top of
// it, to Model.PredictBatch, which runs its own kernel path and never
// touches a Replica, on both serving tiers.
func TestPredictStreamMatchesPredictBatch(t *testing.T) {
	s := fixtures(t)
	q, err := s.a.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		m    *disthd.Model
	}{{"f32", s.a}, {"1bit", q}} {
		t.Run(tier.name, func(t *testing.T) {
			// MaxBatch 4 forces chunking over the 11-row input.
			b, err := NewBatcher(swapperFor(t, tier.m), Options{MaxBatch: 4, Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			rows := s.test.X[:11]
			want, err := tier.m.PredictBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := b.PredictBatch(rows)
			if err != nil {
				t.Fatal(err)
			}
			stream := make([]int, len(rows))
			next := 0
			err = b.PredictStream(len(rows), stream, func(dst []float64) error {
				cols := len(rows[0])
				for i := 0; i < len(dst)/cols; i++ {
					copy(dst[i*cols:(i+1)*cols], rows[next])
					next++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if stream[i] != want[i] || batch[i] != want[i] {
					t.Fatalf("row %d: stream %d, batch %d, model %d", i, stream[i], batch[i], want[i])
				}
			}
		})
	}
}

// TestWrongWidthBatchCountsOneError sends one 2-row batch, each row a
// feature too wide, as JSON and as a binary frame: both answer 400, each
// adds exactly one to /stats errors, and neither counts as answered rows.
func TestWrongWidthBatchCountsOneError(t *testing.T) {
	s := fixtures(t)
	srv, ts := newTestServer(t, s.a)
	cols := len(s.test.X[0]) + 1
	rows := [][]float64{make([]float64, cols), make([]float64, cols)}
	frame, err := wire.AppendMatrixF64(nil, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/predict_batch", predictBatchRequest{X: rows}, nil); code != http.StatusBadRequest {
		t.Fatalf("JSON status %d, want 400", code)
	}
	if snap := srv.Stats(); snap.Errors != 1 {
		t.Fatalf("errors=%d after the JSON batch, want 1", snap.Errors)
	}
	if code, body, _ := postFrame(t, ts.URL+"/predict_batch", frame); code != http.StatusBadRequest {
		t.Fatalf("binary status %d, want 400: %s", code, body)
	}
	if snap := srv.Stats(); snap.Errors != 2 || snap.BatchRequests != 0 {
		t.Fatalf("errors=%d batch_requests=%d after the binary batch, want 2/0", snap.Errors, snap.BatchRequests)
	}
}

// nullRW is the allocation-free ResponseWriter behind the handler-level
// benchmarks.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(int)             {}

// replayBody is a resettable no-op-Close request body.
type replayBody struct{ bytes.Reader }

func (b *replayBody) Close() error { return nil }

// benchHandlerBatch measures the /predict_batch handler path itself —
// dispatch, decode, predict, response framing — with the net/http
// machinery (connection handling, request parsing, goroutine per request)
// factored out, so the wire format's own cost is visible. This is the
// number behind the "≤10 allocs per binary /predict_batch" acceptance
// bar; the end-to-end figure including a real loopback round trip is
// BenchmarkDirectWorker in serve/cluster.
func benchHandlerBatch(b *testing.B, dim, nrows int, binary bool) {
	s := benchFixtures(b, dim)
	srv, err := New(s.m, Options{MaxBatch: 64, Replicas: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rows := s.rows[:nrows]
	var payload []byte
	ct := "application/json"
	if binary {
		payload, err = wire.AppendMatrixF64(nil, rows, len(rows[0]))
		if err != nil {
			b.Fatal(err)
		}
		ct = wire.ContentType
	} else {
		payload, err = json.Marshal(predictBatchRequest{X: rows})
		if err != nil {
			b.Fatal(err)
		}
	}
	body := &replayBody{}
	req := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/predict_batch"},
		Header: http.Header{"Content-Type": []string{ct}},
		Body:   body,
	}
	w := &nullRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(payload)
		srv.ServePredictBatch(w, req)
	}
	b.StopTimer()
	b.ReportMetric(float64(nrows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkWireHandlerBatch sweeps the binary and JSON handler paths over
// the PERF.md dimensionalities. The binary rows/s over JSON rows/s ratio
// at D>=1024 is the wire-level throughput multiple PR 8 claims.
func BenchmarkWireHandlerBatch(b *testing.B) {
	for _, g := range []struct {
		dim  int
		mode string
	}{{512, "json"}, {512, "binary"}, {1024, "json"}, {1024, "binary"}, {2048, "json"}, {2048, "binary"}} {
		b.Run(fmt.Sprintf("D=%d/%s", g.dim, g.mode), func(b *testing.B) {
			benchHandlerBatch(b, g.dim, 16, g.mode == "binary")
		})
	}
}
