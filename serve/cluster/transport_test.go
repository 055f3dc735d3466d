package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPTransportConnectionReuse pins the connection-pool sizing of
// NewHTTPTransport: at chaos-smoke-like fan-out (32-wide waves against
// one worker), the transport must not churn connections — the first
// wave dials once per client and every later wave rides keep-alive.
//
// The wave shape (fan out, barrier, repeat — how the coordinator fans a
// batch's chunks out and waits for stragglers) is what exposes churn: a
// barrier parks every connection idle at once, and any pool sized below
// the fan-out (MaxIdleConnsPerHost 16, or the stdlib default of 2)
// closes the surplus, forcing re-dials next wave. Measured here, per-host
// 16 burned 336 dials over 20×32 requests; per-host 64 dialed 32, ever.
func TestHTTPTransportConnectionReuse(t *testing.T) {
	f := fixtures(t)
	addr := liveWorker(t, f.shards[0])
	rows := f.test.X[:8]

	const (
		fanout = 32
		waves  = 20
	)

	tr := NewHTTPTransport()
	ht := tr.Client.Transport.(*http.Transport)
	if ht.MaxIdleConnsPerHost < fanout {
		t.Fatalf("MaxIdleConnsPerHost = %d, below the %d-wide fan-out it must absorb",
			ht.MaxIdleConnsPerHost, fanout)
	}
	// Count every real TCP dial the pool makes.
	var dials atomic.Int64
	base := &net.Dialer{}
	ht.DialContext = func(ctx context.Context, network, address string) (net.Conn, error) {
		dials.Add(1)
		return base.DialContext(ctx, network, address)
	}

	ctx := context.Background()
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for c := 0; c < fanout; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tr.PredictBatch(ctx, addr, rows); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}

	// Steady state: one dial per concurrent client in the first wave,
	// plus a little slack for requests that raced a connection being
	// handed back. Churn looks like ~10× that — what must not come back.
	if got := dials.Load(); got > fanout*2 {
		t.Fatalf("%d dials for %d requests in %d-wide waves: connection churn (want ≤ %d)",
			got, fanout*waves, fanout, fanout*2)
	}
}

// TestHTTPTransportThrottledWorkerRetries pins the one 4xx that is not a
// PermanentError: a worker's admission-control 429 is overload, not bad
// input, so the coordinator retries it and then degrades to the fallback
// like a 5xx. The batch is answered, nothing is dropped, and the client
// never sees the worker's 429 as its own 400.
func TestHTTPTransportThrottledWorkerRetries(t *testing.T) {
	f := fixtures(t)
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "registry: pool exhausted", http.StatusTooManyRequests)
	}))
	t.Cleanup(hs.Close)
	c, err := New(Config{
		Workers:     []string{hs.URL},
		Quorum:      1,
		Transport:   NewHTTPTransport(),
		CallTimeout: 2 * time.Second,
		Retry:       RetryConfig{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: 2 * time.Microsecond},
		Fallback:    f.shards[0],
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	rows := f.test.X[:4]
	got, err := c.PredictBatch(context.Background(), rows)
	if err != nil {
		t.Fatalf("PredictBatch behind a throttled worker: %v", err)
	}
	want, err := f.shards[0].PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: class %d, want the fallback's %d", i, got[i], want[i])
		}
	}
	snap := c.Stats()
	if snap.Retries != 1 || hits.Load() != 2 {
		t.Fatalf("retries %d, worker hits %d; want 1 and 2 — a 429 must be retried", snap.Retries, hits.Load())
	}
	if snap.FallbackRows != uint64(len(rows)) || snap.Dropped != 0 {
		t.Fatalf("fallback rows %d, dropped %d; want %d and 0", snap.FallbackRows, snap.Dropped, len(rows))
	}
}
