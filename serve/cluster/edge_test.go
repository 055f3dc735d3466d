package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/serve/wire"
)

// lateReadTransport is the fault transport with a stalled worker that
// holds every call until the coordinator abandons it and the client's
// next request has been answered, and only then reads the payload it was
// handed, the way a slow worker's in-flight request body would be read.
// Any other worker answers at once.
type lateReadTransport struct {
	*faultTransport
	stalled string

	served   atomic.Int64    // requests the client has had answered
	answered []chan struct{} // answered[i] is closed once request i is
	changed  chan bool       // one send per abandoned call: did its rows change?
}

// PredictPrepared implements Transport.
func (t *lateReadTransport) PredictPrepared(ctx context.Context, addr string, p PreparedBatch) ([]int, error) {
	if addr != t.stalled {
		return t.faultTransport.PredictPrepared(ctx, addr, p)
	}
	rows := p.(simBatch)
	next := t.answered[t.served.Load()+1]
	sent := make([][]float64, len(rows))
	for i, r := range rows {
		sent[i] = slices.Clone(r)
	}
	<-ctx.Done()
	<-next
	changed := false
	for i := range rows {
		changed = changed || !slices.Equal(rows[i], sent[i])
	}
	t.changed <- changed
	return nil, ctx.Err()
}

// TestServerRowsOutliveAbandonedHedges drives JSON and binary
// /predict_batch through a Server with hedging on and a stalled primary.
// Every answer comes from the hedge, and each abandoned primary reads its
// prepared payload only after the next request of the same format,
// carrying other rows, has been answered into the same pooled request
// scratch. A PrepareBatch that kept the caller's rows instead of copying
// them would see them change under it.
func TestServerRowsOutliveAbandonedHedges(t *testing.T) {
	f := fixtures(t)
	m := f.shards[0]
	const requests = 16 // 8 JSON, then 8 binary
	tr := &lateReadTransport{
		faultTransport: newFaultTransport(1, map[string]*simWorker{"w0": sim(m), "w1": sim(m)}),
		stalled:        "w0",
		answered:       make([]chan struct{}, requests+1),
		// Every request's first chunk goes to the stalled worker: one
		// abandoned call, and one send, per request.
		changed: make(chan bool, requests),
	}
	for i := range tr.answered {
		tr.answered[i] = make(chan struct{})
	}
	c, err := New(Config{
		Workers:     []string{"w0", "w1"},
		Transport:   tr,
		Quorum:      1,
		CallTimeout: 5 * time.Second,
		Retry:       RetryConfig{MaxAttempts: 1, HedgeAfter: time.Millisecond},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(ts.Close)

	batches := [][][]float64{f.test.X[:6], f.test.X[6:12]}
	want := make([][]int, len(batches))
	for i, rows := range batches {
		if want[i], err = m.PredictBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < requests; i++ {
		binary, k := i >= requests/2, i%len(batches)
		var got []int
		if binary {
			got = postBatchBinary(t, ts.URL, batches[k])
		} else {
			got = postBatchJSON(t, ts.URL, batches[k])
		}
		tr.served.Add(1)
		close(tr.answered[i])
		if !slices.Equal(got, want[k]) {
			t.Fatalf("request %d (binary=%v): classes %v, want %v", i, binary, got, want[k])
		}
	}
	close(tr.answered[requests]) // releases the last abandoned call
	changed := 0
	for i := 0; i < requests; i++ {
		select {
		case moved := <-tr.changed:
			if moved {
				changed++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d abandoned calls finished", i, requests)
		}
	}
	if snap := c.Stats(); snap.HedgeWins != requests {
		t.Fatalf("%d hedge wins, want %d: every answer must come from the hedge", snap.HedgeWins, requests)
	}
	if changed != 0 {
		t.Fatalf("%d abandoned calls saw their rows overwritten after the handler returned", changed)
	}
}

// TestServerRejectsTrailingJSON pins the one place the coordinator's
// prediction edge differs from before it was shared with the worker: a
// JSON body with bytes after the value is a 400 from both.
func TestServerRejectsTrailingJSON(t *testing.T) {
	f := fixtures(t)
	_, cluster := newTestServer(t, map[string]*simWorker{"w0": sim(f.shards[0])}, func(cfg *Config) {
		cfg.Workers = []string{"w0"}
		cfg.Fallback = f.shards[0]
	})
	worker := liveWorker(t, f.shards[0])
	body, err := json.Marshal(map[string]any{"x": f.test.X[:2]})
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, ` {"x":[]}`...)
	for name, url := range map[string]string{"coordinator": cluster.URL, "worker": worker} {
		resp, err := http.Post(url+"/predict_batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: trailing bytes answered %d, want 400", name, resp.StatusCode)
		}
	}
}

// zeroWidthBomb is a 20-byte matrix frame declaring 2³²−1 rows of 0
// features: the one shape whose payload cannot bound its row count.
func zeroWidthBomb() []byte {
	frame := []byte{'D', 'H', 'D', 'F', wire.Version, byte(wire.TypeMatrixF64), 0, 0}
	for _, v := range []uint32{8, 0xffffffff, 0} { // payload length, rows, cols
		frame = binary.LittleEndian.AppendUint32(frame, v)
	}
	return frame
}

// TestServerRejectsZeroWidthFrame pins the row bound on both servers that
// mount the edge: a zero-width frame claiming 2³²−1 rows answers 400 from
// a coordinator and a worker alike, before anything is sized by its row
// count, and each keeps serving.
func TestServerRejectsZeroWidthFrame(t *testing.T) {
	f := fixtures(t)
	_, cluster := newTestServer(t, map[string]*simWorker{"w0": sim(f.shards[0])}, func(cfg *Config) {
		cfg.Workers = []string{"w0"}
	})
	worker := liveWorker(t, f.shards[0])
	for name, url := range map[string]string{"coordinator": cluster.URL, "worker": worker} {
		resp, err := http.Post(url+"/predict_batch", wire.ContentType, bytes.NewReader(zeroWidthBomb()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: zero-width frame answered %d, want 400", name, resp.StatusCode)
		}
		if got := postBatchBinary(t, url, f.test.X[:3]); len(got) != 3 {
			t.Errorf("%s: %d classes after the bomb, want 3", name, len(got))
		}
	}
}
