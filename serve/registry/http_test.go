package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/serve"
	"repro/serve/wire"
)

// TestRegistryAliasByteIdentical is the compatibility contract: every
// single-model route answered through the registry's default-tenant alias
// must be byte-for-byte what a plain serve.Server answers — status, JSON
// body, model snapshot bytes, and error shapes alike. (GET /stats is the
// one deliberate exception: in registry mode it is the aggregate.)
func TestRegistryAliasByteIdentical(t *testing.T) {
	fx := fixtures(t)[0]
	opts := quickOpts()
	single, err := serve.New(fx.m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Batcher().Close()
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(fx.name, fx.m, Spec{Options: opts}); err != nil {
		t.Fatal(err)
	}
	regsrv := NewServer(reg)

	var snapshot bytes.Buffer
	if err := fx.m.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	goodRow, _ := json.Marshal(map[string]any{"x": fx.rows[0]})
	badRow, _ := json.Marshal(map[string]any{"x": []float64{1, 2, 3}})
	batch, _ := json.Marshal(map[string]any{"x": fx.rows[:4]})

	cases := []struct {
		name, method, path, body string
	}{
		{"predict", "POST", "/predict", string(goodRow)},
		{"predict-shape-error", "POST", "/predict", string(badRow)},
		{"predict-malformed", "POST", "/predict", "{nope"},
		{"predict-batch", "POST", "/predict_batch", string(batch)},
		{"predict-wrong-method", "GET", "/predict", ""},
		{"healthz", "GET", "/healthz", ""},
		{"model-export", "GET", "/model", ""},
		{"model-bad-format", "GET", "/model?format=f16", ""},
		{"learn-without-learner", "POST", "/learn", string(goodRow)},
		{"retrain-without-learner", "POST", "/retrain", ""},
		{"swap", "POST", "/swap", snapshot.String()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var answers [2]*httptest.ResponseRecorder
			for i, h := range []http.Handler{single.Handler(), regsrv.Handler()} {
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
				if tc.method == "POST" && tc.path != "/swap" && tc.path != "/retrain" {
					req.Header.Set("Content-Type", "application/json")
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				answers[i] = rec
			}
			s, r := answers[0], answers[1]
			if s.Code != r.Code {
				t.Fatalf("status: single %d, registry alias %d", s.Code, r.Code)
			}
			if got, want := r.Header().Get("Content-Type"), s.Header().Get("Content-Type"); got != want {
				t.Fatalf("Content-Type: single %q, registry alias %q", want, got)
			}
			if !bytes.Equal(s.Body.Bytes(), r.Body.Bytes()) {
				t.Fatalf("body diverged:\nsingle:   %q\nregistry: %q", s.Body.String(), r.Body.String())
			}
		})
	}
}

// TestRegistryHTTPAdminPlane walks the admin endpoints over live HTTP:
// install by JSON spec and by model-snapshot body, list, per-tenant
// routing and stats, 404/429 mapping, and drain-then-remove.
func TestRegistryHTTPAdminPlane(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewServer(reg).Handler())
	defer ts.Close()
	client := ts.Client()

	do := func(method, path, contentType string, body io.Reader) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Install tenant "spec" from a JSON InstallSpec (trains in-process).
	spec := `{"demo":"DIABETES","dim":64,"scale":0.05,"seed":7,"iterations":2,"max_batch":16}`
	resp, body := do("PUT", "/t/spec", "application/json", strings.NewReader(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /t/spec: %d %s", resp.StatusCode, body)
	}
	var installed TenantStats
	if err := json.Unmarshal(body, &installed); err != nil {
		t.Fatal(err)
	}
	if installed.ID != "spec" || installed.Dim != 64 {
		t.Fatalf("install answered %+v, want id=spec dim=64", installed)
	}

	// Install tenant "snap" from a Model.Save snapshot body.
	var snapshot bytes.Buffer
	if err := fx[1].m.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	resp, body = do("PUT", "/t/snap?max_batch=16", "application/octet-stream", &snapshot)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /t/snap: %d %s", resp.StatusCode, body)
	}

	// A garbage snapshot body is a 400, not an install.
	resp, _ = do("PUT", "/t/garbage", "application/octet-stream", strings.NewReader("not a model"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT garbage snapshot: %d, want 400", resp.StatusCode)
	}

	// Both tenants serve through their /t/{model} routes with their own
	// shapes.
	row, _ := json.Marshal(map[string]any{"x": fx[1].rows[:2]})
	resp, body = do("POST", "/t/snap/predict_batch", "application/json", bytes.NewReader(row))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /t/snap/predict_batch: %d %s", resp.StatusCode, body)
	}
	var pb struct {
		Classes []int `json:"classes"`
	}
	if err := json.Unmarshal(body, &pb); err != nil {
		t.Fatal(err)
	}
	if want := fx[1].want[:2]; len(pb.Classes) != 2 || pb.Classes[0] != want[0] || pb.Classes[1] != want[1] {
		t.Fatalf("snap tenant answered %v, its model says %v", pb.Classes, want)
	}

	// GET /models lists both, install order, with the first as default.
	resp, body = do("GET", "/models", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /models: %d", resp.StatusCode)
	}
	var models modelsResponse
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if models.Default != "spec" || len(models.Tenants) != 2 {
		t.Fatalf("GET /models = %+v, want default=spec with 2 tenants", models)
	}

	// Per-tenant stats and the aggregate.
	resp, body = do("GET", "/t/snap/stats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /t/snap/stats: %d", resp.StatusCode)
	}
	var ten TenantStats
	if err := json.Unmarshal(body, &ten); err != nil {
		t.Fatal(err)
	}
	if ten.ID != "snap" || ten.Features != fx[1].m.Features() {
		t.Fatalf("tenant stats %+v, want snap with %d features", ten, fx[1].m.Features())
	}
	resp, body = do("GET", "/stats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %d", resp.StatusCode)
	}
	var agg Stats
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.TenantCount != 2 || agg.Capacity != 2 {
		t.Fatalf("aggregate stats %+v, want 2 tenants over capacity 2", agg)
	}

	// Unknown tenants 404 on both planes.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/t/nope/predict_batch"},
		{"GET", "/t/nope/stats"},
		{"DELETE", "/t/nope"},
	} {
		resp, _ = do(probe.method, probe.path, "application/json", strings.NewReader(string(row)))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// DELETE drains and removes; the route 404s afterwards.
	resp, _ = do("DELETE", "/t/snap", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /t/snap: %d", resp.StatusCode)
	}
	resp, _ = do("POST", "/t/snap/predict_batch", "application/json", bytes.NewReader(row))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after DELETE: %d, want 404", resp.StatusCode)
	}
}

// TestRegistryHTTPAdmission429 proves the HTTP mapping of admission
// control: with the whole pool pinned, waking another tenant answers 429.
func TestRegistryHTTPAdmission429(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(fx[0].name, fx[0].m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire(fx[0].name)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(fx[1].name, fx[1].m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	row, _ := json.Marshal(map[string]any{"x": fx[1].rows[0]})
	req := httptest.NewRequest("POST", fmt.Sprintf("/t/%s/predict", fx[1].name), bytes.NewReader(row))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("wake under a pinned pool: %d, want 429 (%s)", rec.Code, rec.Body)
	}
	// Admission rejections tell well-behaved clients when to come back.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After = %q, want %q", got, "1")
	}
	reg.Release(h)
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", fmt.Sprintf("/t/%s/predict", fx[1].name), bytes.NewReader(row))
	req.Header.Set("Content-Type", "application/json")
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("wake after the pool drained: %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

// TestRegistryRejectsZeroWidthFrame pins the tenant route's row bound: a
// 20-byte frame claiming 2³²−1 rows of 0 features answers 400 before
// anything is sized by its row count, and the tenant keeps serving.
func TestRegistryRejectsZeroWidthFrame(t *testing.T) {
	fx := fixtures(t)[0]
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(fx.name, fx.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	h := NewServer(reg).Handler()
	bomb := []byte{'D', 'H', 'D', 'F', wire.Version, byte(wire.TypeMatrixF64), 0, 0}
	for _, v := range []uint32{8, 0xffffffff, 0} { // payload length, rows, cols
		bomb = binary.LittleEndian.AppendUint32(bomb, v)
	}
	good, err := wire.AppendMatrixF64(nil, fx.rows[:2], len(fx.rows[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		frame []byte
		want  int
	}{{bomb, http.StatusBadRequest}, {good, http.StatusOK}} {
		req := httptest.NewRequest("POST", "/t/"+fx.name+"/predict_batch", bytes.NewReader(c.frame))
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%d-byte frame: status %d, want %d (%s)", len(c.frame), rec.Code, c.want, rec.Body)
		}
	}
}

// TestRegistryLearnPerTenant proves online learning runs per tenant
// through the alias-identical handlers: feedback to one tenant moves that
// tenant's learner gauges and nobody else's.
func TestRegistryLearnPerTenant(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	learn := Spec{Options: quickOpts(), Learner: &serve.LearnerOptions{Seed: 1}}
	if err := reg.Install(fx[0].name, fx[0].m, learn); err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(fx[1].name, fx[1].m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	feed, _ := json.Marshal(map[string]any{"x": fx[0].rows[0], "label": fx[0].want[0]})
	req := httptest.NewRequest("POST", fmt.Sprintf("/t/%s/learn", fx[0].name), bytes.NewReader(feed))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /t/%s/learn: %d (%s)", fx[0].name, rec.Code, rec.Body)
	}
	ts, err := reg.TenantStats(fx[0].name)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Serve == nil || ts.Serve.Learner == nil || ts.Serve.Learner.Feedback != 1 {
		t.Fatalf("learning tenant stats %+v, want 1 feedback sample", ts.Serve)
	}
	// The learner-free tenant still 404s /learn — exactly the single-model
	// behavior.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", fmt.Sprintf("/t/%s/learn", fx[1].name), bytes.NewReader(feed))
	req.Header.Set("Content-Type", "application/json")
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /learn on a learner-free tenant: %d, want 404", rec.Code)
	}
}
