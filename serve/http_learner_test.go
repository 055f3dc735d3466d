package serve

import (
	"encoding/json"
	"net/http"
	"testing"
)

// decodeJSON decodes a response body.
func decodeJSON(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// newLearnerServer spins a Server with a Learner attached.
func newLearnerServer(t *testing.T, opts LearnerOptions) (*Server, string) {
	t.Helper()
	st := fixtures(t)
	srv, ts := newTestServer(t, st.a)
	l, err := NewLearner(srv.Batcher().Swapper(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachLearner(l)
	return srv, ts.URL
}

func TestHTTPLearnWithoutLearner(t *testing.T) {
	st := fixtures(t)
	_, ts := newTestServer(t, st.a)
	if code := postJSON(t, ts.URL+"/learn", map[string]any{"x": st.test.X[0], "label": 0}, nil); code != http.StatusNotFound {
		t.Fatalf("/learn without learner returned %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/retrain", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("/retrain without learner returned %d, want 404", code)
	}
}

func TestHTTPLearnFlow(t *testing.T) {
	st := fixtures(t)
	srv, url := newLearnerServer(t, LearnerOptions{RecentWindow: 8, Iterations: 1})

	var res FeedResult
	code := postJSON(t, url+"/learn", map[string]any{"x": st.test.X[0], "label": st.test.Y[0]}, &res)
	if code != http.StatusOK {
		t.Fatalf("/learn returned %d", code)
	}
	if res.WindowAccuracy != 0 && res.WindowAccuracy != 1 {
		t.Fatalf("first feedback window accuracy %v", res.WindowAccuracy)
	}

	if code := postJSON(t, url+"/learn", map[string]any{"x": st.test.X[0][:2], "label": 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed /learn returned %d, want 400", code)
	}

	// Below the RecentWindow floor: /retrain must refuse.
	if code := postJSON(t, url+"/retrain", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("/retrain below the retrain floor returned %d, want 409", code)
	}
	for i := 1; i < 16; i++ {
		if code := postJSON(t, url+"/learn", map[string]any{"x": st.test.X[i], "label": st.test.Y[i]}, nil); code != http.StatusOK {
			t.Fatalf("/learn %d returned %d", i, code)
		}
	}
	var started map[string]bool
	if code := postJSON(t, url+"/retrain", struct{}{}, &started); code != http.StatusAccepted {
		t.Fatalf("/retrain returned %d, want 202", code)
	}
	if !started["started"] {
		t.Fatal("retrain not reported started")
	}
	srv.Learner().Wait()

	// Learner gauges must be visible in /stats.
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := decodeJSON(resp, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Learner == nil {
		t.Fatal("/stats missing learner gauges with a learner attached")
	}
	if snap.Learner.Feedback != 16 {
		t.Fatalf("learner feedback gauge %d, want 16", snap.Learner.Feedback)
	}
	if snap.Learner.Retrains != 1 {
		t.Fatalf("learner retrains gauge %d, want 1", snap.Learner.Retrains)
	}
	// A gated accept swaps twice: the judged challenger, then the
	// full-window refit.
	if snap.Swaps != 2 {
		t.Fatalf("swap counter %d after gated retrain publish, want 2", snap.Swaps)
	}

	// A /retrain racing an in-flight one answers 409, not a second run.
	if code := postJSON(t, url+"/retrain", struct{}{}, nil); code != http.StatusAccepted && code != http.StatusConflict {
		t.Fatalf("second /retrain returned %d", code)
	}
	srv.Learner().Wait()
}
