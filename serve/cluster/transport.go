package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	disthd "repro"
	"repro/serve/wire"
)

// Transport is how the Coordinator talks to one worker shard. The worker
// argument is the address the Coordinator was configured with; every call
// that takes a ctx must honor its cancellation, because the retry, hedge,
// and deadline machinery all cancel through it. HTTPTransport is the
// production implementation (each worker a stock disthd-serve); the tests
// substitute a deterministic in-memory fault-injecting transport.
type Transport interface {
	// PrepareBatch encodes one chunk's rows into a payload that every
	// retry and hedge of the chunk reuses. It must not keep rows: they
	// live in request scratch that is recycled once the caller is
	// answered, while an abandoned hedge may still be sending the payload.
	PrepareBatch(rows [][]float64) (PreparedBatch, error)
	// PredictPrepared runs one prediction attempt against worker with a
	// payload from this transport's PrepareBatch and returns one class
	// per row.
	PredictPrepared(ctx context.Context, worker string, p PreparedBatch) ([]int, error)
	// Health probes the worker's /healthz and returns its self-reported
	// status ("ok" or "degraded"); a non-nil error means the worker did
	// not answer healthily at all.
	Health(ctx context.Context, worker string) (HealthStatus, error)
	// FetchModel pulls the worker's serving model snapshot (GET /model) —
	// what the federated merge loop aggregates.
	FetchModel(ctx context.Context, worker string) (*disthd.Model, error)
	// PushModel publishes m to the worker (POST /swap) — how a gated
	// merged model is republished to the shards.
	PushModel(ctx context.Context, worker string, m *disthd.Model) error
}

// HealthStatus is a worker's self-reported health, as surfaced by the
// truthful /healthz endpoint: Status "degraded" means the worker is
// serving but impaired (e.g. its learner is in post-rejection backoff or a
// retrain is wedged), so the coordinator deprioritizes it without opening
// its breaker.
type HealthStatus struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Swaps is the worker's model-swap counter, useful for checking that
	// a republished merge actually landed.
	Swaps uint64 `json:"swaps"`
}

// PermanentError wraps a failure that retrying on another worker cannot
// fix — a 4xx other than 429 from the worker, i.e. the caller's own input
// was bad. The
// coordinator returns it immediately instead of burning retries, and it
// never counts against a worker's circuit breaker.
type PermanentError struct {
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *PermanentError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped failure to errors.Is / errors.As.
func (e *PermanentError) Unwrap() error { return e.Err }

// PreparedBatch is one chunk's request payload, encoded once by
// Transport.PrepareBatch and read concurrently by every attempt at the
// chunk; only the transport that prepared it knows its concrete type.
type PreparedBatch any

// HTTPTransport talks to workers over the serve.Server HTTP wire formats:
// POST /predict_batch in the repro/serve/wire binary frame protocol, GET
// /healthz, GET /model, POST /swap. A worker address may be "host:port" or
// a full http:// URL. The Coordinator encodes each chunk exactly once and
// reuses the payload (and the cached endpoint URL) across every retry and
// hedge of that chunk.
type HTTPTransport struct {
	// Client is the underlying HTTP client; NewHTTPTransport installs one
	// tuned for many small requests to few hosts. Per-call deadlines come
	// from the context, not Client.Timeout.
	Client *http.Client

	// urls caches per-worker endpoint URLs so no request rebuilds them.
	urls sync.Map // worker addr -> *workerURLs
}

// workerURLs is the per-worker endpoint URL cache.
type workerURLs struct {
	predictBatch, healthz, model, swap string
}

// NewHTTPTransport returns a transport with a connection-pooled client
// sized for coordinator fan-out (keep-alive connections to every worker,
// no global timeout — the coordinator propagates deadlines per call).
//
// MaxIdleConnsPerHost must be at least the coordinator's per-worker
// concurrency: the stdlib default (2) — and anything below the client
// fan-out — closes the surplus connections after every burst, so a
// closed loop at chaos-smoke concurrency re-dials the same worker on
// almost every request. 64 per host covers the chunk fan-out plus
// hedges; TestHTTPTransportConnectionReuse pins the no-churn behavior.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{Client: &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// endpoints returns the cached endpoint URLs for a worker, building them
// on first use.
func (t *HTTPTransport) endpoints(worker string) *workerURLs {
	if u, ok := t.urls.Load(worker); ok {
		return u.(*workerURLs)
	}
	base := worker
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	u := &workerURLs{
		predictBatch: base + "/predict_batch",
		healthz:      base + "/healthz",
		model:        base + "/model",
		swap:         base + "/swap",
	}
	actual, _ := t.urls.LoadOrStore(worker, u)
	return actual.(*workerURLs)
}

// do runs one request and maps worker-side status codes: 2xx passes
// through, 4xx becomes a PermanentError, and anything else is a retryable
// failure. A 429 is the exception among the 4xx: it is a worker's
// admission control shedding load (a `disthd-serve -registry` with its
// pool exhausted), not bad input, so it retries and falls back like a 5xx.
// The returned body is non-nil only on success.
func (t *HTTPTransport) do(req *http.Request) (*http.Response, error) {
	resp, err := t.Client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	err = fmt.Errorf("cluster: worker %s: %s: %s", req.URL.Host, resp.Status, bytes.TrimSpace(body))
	if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
		return nil, &PermanentError{Err: err}
	}
	return nil, err
}

// preparedBatch is HTTPTransport's PreparedBatch: the encoded matrix
// frame plus the row count a response must answer. The payload is
// immutable once built, so concurrent hedged attempts can stream it
// simultaneously (each attempt wraps it in its own bytes.Reader). It is
// not pooled: abandoned hedges may still be streaming it after the chunk
// is answered, so it is garbage-collected once the last attempt's body
// reader drops it.
type preparedBatch struct {
	payload []byte
	rows    int
}

// PrepareBatch implements Transport: the chunk is encoded exactly once, as
// a binary matrix frame, into a payload of its own, and every retry/hedge
// reuses the bytes.
func (t *HTTPTransport) PrepareBatch(rows [][]float64) (PreparedBatch, error) {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	payload, err := wire.AppendMatrixF64(make([]byte, 0, wire.HeaderSize+8+len(rows)*cols*8), rows, cols)
	if err != nil {
		return nil, &PermanentError{Err: err}
	}
	return &preparedBatch{payload: payload, rows: len(rows)}, nil
}

// PredictPrepared implements Transport over POST /predict_batch.
func (t *HTTPTransport) PredictPrepared(ctx context.Context, worker string, pb PreparedBatch) ([]int, error) {
	p, ok := pb.(*preparedBatch)
	if !ok {
		return nil, &PermanentError{Err: fmt.Errorf("cluster: foreign prepared batch %T", pb)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.endpoints(worker).predictBatch, bytes.NewReader(p.payload))
	if err != nil {
		return nil, &PermanentError{Err: err}
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := t.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeClasses(resp.Body, worker, p.rows)
}

// decodeClasses reads a binary classes frame and validates the count.
func decodeClasses(body io.Reader, worker string, rows int) ([]int, error) {
	classes, err := wire.ReadClasses(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: decode response: %w", worker, err)
	}
	if len(classes) != rows {
		return nil, fmt.Errorf("cluster: worker %s answered %d classes for %d rows", worker, len(classes), rows)
	}
	return classes, nil
}

// Health implements Transport over GET /healthz.
func (t *HTTPTransport) Health(ctx context.Context, worker string) (HealthStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.endpoints(worker).healthz, nil)
	if err != nil {
		return HealthStatus{}, err
	}
	resp, err := t.do(req)
	if err != nil {
		return HealthStatus{}, err
	}
	defer resp.Body.Close()
	var hs HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		return HealthStatus{}, fmt.Errorf("cluster: worker %s: decode healthz: %w", worker, err)
	}
	return hs, nil
}

// FetchModel implements Transport over GET /model.
func (t *HTTPTransport) FetchModel(ctx context.Context, worker string) (*disthd.Model, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.endpoints(worker).model, nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m, err := disthd.Load(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", worker, err)
	}
	return m, nil
}

// PushModel implements Transport over POST /swap.
func (t *HTTPTransport) PushModel(ctx context.Context, worker string, m *disthd.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return &PermanentError{Err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.endpoints(worker).swap, &buf)
	if err != nil {
		return &PermanentError{Err: err}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
