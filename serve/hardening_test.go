package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	disthd "repro"
	"repro/serve/internal/edge"
)

// TestModelExportRoundTrip pins the GET /model contract: the exported
// snapshot is the same versioned wire format /swap accepts, and a model
// that travels export → import predicts bitwise-identically to the
// original.
func TestModelExportRoundTrip(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)

	resp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/model status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("/model content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl == "" {
		t.Fatal("/model response carries no Content-Length")
	}

	// Import the exported bytes directly: predictions must match bit for
	// bit on the whole test split.
	imported, err := disthd.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("exported snapshot does not Load: %v", err)
	}
	want, err := s.a.PredictBatch(s.test.X)
	if err != nil {
		t.Fatal(err)
	}
	got, err := imported.PredictBatch(s.test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: imported model predicts %d, original %d", i, got[i], want[i])
		}
	}

	// And the snapshot round-trips through /swap on a server serving a
	// different model: afterwards that server must answer like the export.
	_, ts2 := newTestServer(t, s.b)
	swapResp, err := http.Post(ts2.URL+"/swap", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	swapResp.Body.Close()
	if swapResp.StatusCode != http.StatusOK {
		t.Fatalf("/swap of exported snapshot: status %d", swapResp.StatusCode)
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	if code := postJSON(t, ts2.URL+"/predict_batch", predictBatchRequest{X: s.test.X[:8]}, &out); code != http.StatusOK {
		t.Fatalf("/predict_batch after swap: status %d", code)
	}
	for i := range out.Classes {
		if out.Classes[i] != want[i] {
			t.Fatalf("row %d after export→swap: class %d, want %d", i, out.Classes[i], want[i])
		}
	}
}

// TestRequestBodyLimits pins the hardening bound: a JSON body over
// edge.MaxJSONBody answers 413, not a hung or misparsed request. The
// payload is shaped so only the limit can reject it (leading whitespace
// is valid JSON framing).
func TestRequestBodyLimits(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)

	huge := append(bytes.Repeat([]byte{' '}, edge.MaxJSONBody+1), []byte(`{"x":[]}`)...)
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /predict body: status %d, want 413", resp.StatusCode)
	}

	// A small malformed body is still a plain 400.
	resp, err = http.Post(ts.URL+"/predict", "application/json", strings.NewReader("{oops"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestSwapRejectsShapeBomb pins the snapshot decoder's allocation bound
// at the HTTP edge: a 28-byte /swap body whose header claims a
// 65535×65535 model answers 400 (its payload is missing) instead of
// allocating the claimed 32 GiB before reading a byte of it, and the
// server keeps serving.
func TestSwapRejectsShapeBomb(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)
	bomb := binary.LittleEndian.AppendUint32(nil, 0x44485644) // "DVHD"
	for _, v := range []uint32{1, 0xffff, 0xffff, 0xffff} {   // version, shape
		bomb = binary.LittleEndian.AppendUint32(bomb, v)
	}
	bomb = binary.LittleEndian.AppendUint64(bomb, math.Float64bits(1)) // sigma
	resp, err := http.Post(ts.URL+"/swap", "application/octet-stream", bytes.NewReader(bomb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shape bomb /swap: status %d, want 400", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/predict", predictRequest{X: s.test.X[0]}, nil); code != http.StatusOK {
		t.Fatalf("/predict after the bomb: status %d", code)
	}
}

// oneBitSnapshot is a well-formed 1-bit model snapshot of the given
// shape: unit bandwidth, zero encoder, all-(−1) classes.
func oneBitSnapshot(features, dim, classes int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x44485644) // "DVHD"
	for _, v := range []int{2, features, dim, classes} {   // 1-bit version, shape
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	return append(b, make([]byte, 8*(dim*features+dim+classes*((dim+63)/64)))...)
}

// TestSwapRefusesShapeBeforeDecoding pins that /swap judges a snapshot's
// shape on its header: a 640 KiB 1-bit body shaped unlike the serving
// model answers 409 without first expanding its classes into their ±1
// float view, 64 times the class payload (32 MiB here).
func TestSwapRefusesShapeBeforeDecoding(t *testing.T) {
	s := fixtures(t)
	_, ts := newTestServer(t, s.a)
	body := oneBitSnapshot(1, 8192, 512)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/swap", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched 1-bit /swap: status %d, want 409", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("refusing a %d-byte snapshot allocated %d MiB", len(body), grew>>20)
	}
}

// TestServerTimeoutsConfigured pins that the hardening timeouts are
// actually installed on the underlying http.Server.
func TestServerTimeoutsConfigured(t *testing.T) {
	s := fixtures(t)
	srv, _ := newTestServer(t, s.a)
	hs := srv.hs
	if hs.ReadHeaderTimeout != edge.ReadHeaderTimeout || hs.ReadTimeout != edge.ReadTimeout || hs.IdleTimeout != edge.IdleTimeout {
		t.Fatalf("timeouts %v/%v/%v, want %v/%v/%v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout,
			edge.ReadHeaderTimeout, edge.ReadTimeout, edge.IdleTimeout)
	}
}

// getHealthz fetches /healthz and decodes the status fields.
func getHealthz(t *testing.T, url string) (int, string, []string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, hz.Status, hz.Reasons
}

// TestHealthzDegradedOnRejectionBackoff drives the learner into the
// post-rejection backoff state and checks that /healthz tells the truth —
// 200 + "degraded" with a reason by default, 503 under SetStrictHealth —
// and that /stats carries the same verdict.
func TestHealthzDegradedOnRejectionBackoff(t *testing.T) {
	srv, url := newLearnerServer(t, LearnerOptions{RecentWindow: 16})
	lr := srv.Learner()

	if code, status, _ := getHealthz(t, url); code != http.StatusOK || status != "ok" {
		t.Fatalf("fresh learner: %d %q, want 200 ok", code, status)
	}

	// A challenger was just rejected: rejectAt = feedback+1 is exactly what
	// runRetrain records, and no fresh feedback has arrived since.
	lr.rejectAt.Store(lr.feedback.Load() + 1)
	code, status, reasons := getHealthz(t, url)
	if code != http.StatusOK || status != "degraded" {
		t.Fatalf("in backoff: %d %q, want 200 degraded", code, status)
	}
	if len(reasons) == 0 || !strings.Contains(reasons[0], "backoff") {
		t.Fatalf("degraded reasons %v, want the backoff named", reasons)
	}

	srv.SetStrictHealth(true)
	if code, status, _ := getHealthz(t, url); code != http.StatusServiceUnavailable || status != "degraded" {
		t.Fatalf("strict mode: %d %q, want 503 degraded", code, status)
	}
	srv.SetStrictHealth(false)

	// The same verdict shows in /stats.
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Learner *LearnerSnapshot `json:"learner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Learner == nil || !snap.Learner.Degraded || !snap.Learner.RejectionBackoff {
		t.Fatalf("stats learner %+v, want degraded via rejection backoff", snap.Learner)
	}
}

// TestLearnerHealthWedgedRetrain pins the stall detector: a retrain
// running past its stall deadline flags the learner wedged, and Health
// never blocks on the learner mutex to say so.
func TestLearnerHealthWedgedRetrain(t *testing.T) {
	srv, url := newLearnerServer(t, LearnerOptions{})
	lr := srv.Learner()
	lr.stallDeadline = 50 * time.Millisecond

	// Simulate a wedged in-flight retrain: slot claimed, started in the
	// past. (A real wedge needs a pathological dataset; the detector only
	// reads these two fields.)
	lr.retraining.Store(true)
	lr.retrainStart.Store(time.Now().Add(-time.Second).UnixNano())
	defer func() {
		lr.retraining.Store(false)
		lr.retrainStart.Store(0)
	}()

	// Health must see the wedge even while the learner mutex is held (a
	// wedged retrain can be stuck holding learner state).
	lr.mu.Lock()
	h := lr.Health()
	lr.mu.Unlock()
	if !h.Degraded || !h.RetrainWedged {
		t.Fatalf("health %+v, want a wedged-retrain degradation", h)
	}
	if len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "wedged") {
		t.Fatalf("reasons %v, want the wedge named", h.Reasons)
	}

	if _, status, _ := getHealthz(t, url); status != "degraded" {
		t.Fatalf("/healthz status %q with a wedged retrain, want degraded", status)
	}

	// A fresh retrain inside its deadline is NOT wedged.
	lr.retrainStart.Store(time.Now().UnixNano())
	if h := lr.Health(); h.RetrainWedged {
		t.Fatal("a retrain inside its stall deadline reported as wedged")
	}
}
