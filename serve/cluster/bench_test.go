package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	disthd "repro"
	"repro/serve"
)

// benchWorker stands up one stock serving worker over real HTTP and
// returns its address.
func benchWorker(b *testing.B, m *disthd.Model) string {
	b.Helper()
	srv, err := serve.New(m, serve.Options{MaxBatch: 32, Replicas: 1})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// benchRows is the per-request batch both benchmarks send, so the pair
// isolates the coordinator machinery (breaker bookkeeping, chunk split,
// quorum check, stats) from the shared wire cost.
func benchRows(f *clusterFixtures) [][]float64 {
	return f.test.X[:16]
}

// predictDirect classifies rows on worker in one attempt: one prepare and
// one call, the frame the Coordinator sends per attempt of a chunk.
func predictDirect(ctx context.Context, tr *HTTPTransport, worker string, rows [][]float64) ([]int, error) {
	p, err := tr.PrepareBatch(rows)
	if err != nil {
		return nil, err
	}
	return tr.PredictPrepared(ctx, worker, p)
}

// BenchmarkDirectWorker is the baseline: one binary /predict_batch round
// trip straight to a single worker through the same HTTPTransport the
// coordinator uses, loopback TCP and net/http included.
func BenchmarkDirectWorker(b *testing.B) {
	f := fixtures(b)
	addr := benchWorker(b, f.shards[0])
	tr := NewHTTPTransport()
	rows := benchRows(f)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predictDirect(ctx, tr, addr, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinator measures the same batch through the full
// coordinator path: health-gated candidate selection, chunk fan-out
// across three live workers, per-chunk breaker claims, and stats
// accounting. The delta against BenchmarkDirectWorker is the price of
// fault tolerance on the happy path.
func BenchmarkCoordinator(b *testing.B) {
	f := fixtures(b)
	addrs := []string{
		benchWorker(b, f.shards[0]),
		benchWorker(b, f.shards[1]),
		benchWorker(b, f.shards[2]),
	}
	c, err := New(Config{
		Workers:     addrs,
		CallTimeout: 2 * time.Second,
		Fallback:    f.shards[0],
		Seed:        11,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	rows := benchRows(f)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PredictBatch(ctx, rows); err != nil {
			b.Fatal(err)
		}
	}
}
