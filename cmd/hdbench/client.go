package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	disthd "repro"
	"repro/serve/registry"
	"repro/serve/wire"
)

// client is one -loadgen -tenants target: the driver is written once
// against it and runs unchanged in-process (tenantClient) or against a
// live registry server (httpClient).
type client interface {
	// predictBatch classifies rows, one class per row.
	predictBatch(rows [][]float64) ([]int, error)
	// learn feeds one labeled sample to the target's online learner.
	learn(x []float64, label int) error
}

// throttledError is admission-control backpressure — a live 429, or an
// in-process registry.ErrPoolExhausted — to retry, not a failure.
type throttledError struct {
	retryAfter time.Duration // the server's Retry-After; 0 in-process, or when absent or unparsable
}

func (e *throttledError) Error() string { return "throttled (429): registry pool exhausted" }

// backoff is how long to wait before retrying: the server's Retry-After,
// else 100µs.
func (e *throttledError) backoff() time.Duration {
	if e.retryAfter > 0 {
		return e.retryAfter
	}
	return 100 * time.Microsecond
}

// tenantClient drives one registry tenant in-process, each call between
// Acquire and Release; an exhausted pool is the throttled error a live
// 429 gives.
type tenantClient struct {
	reg *registry.Registry
	id  string
}

// acquire pins the tenant resident for one call; Release it after.
func (c tenantClient) acquire() (*registry.Tenant, error) {
	t, err := c.reg.Acquire(c.id)
	if errors.Is(err, registry.ErrPoolExhausted) {
		return nil, &throttledError{}
	}
	return t, err
}

func (c tenantClient) predictBatch(rows [][]float64) ([]int, error) {
	t, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer c.reg.Release(t)
	return t.Server().Batcher().PredictBatch(rows)
}

func (c tenantClient) learn(x []float64, label int) error {
	t, err := c.acquire()
	if err != nil {
		return err
	}
	defer c.reg.Release(t)
	_, err = t.Server().Learner().Feed(x, label)
	return err
}

// Wire formats httpClient speaks on /predict_batch and /learn, picked
// with -wire. f32 sends request matrices as TypeMatrixF32 frames: half the
// bytes of binary, exact for the 1-bit tier (its queries are
// sign-quantized anyway); its learn frames and responses are binary's.
const (
	wireJSON   = "json"
	wireBinary = "binary"
	wireF32    = "f32"
)

// checkWire validates the -wire flag value.
func checkWire(s string) error {
	if s != wireJSON && s != wireBinary && s != wireF32 {
		return fmt.Errorf("bad -wire %q: want %s, %s or %s", s, wireJSON, wireBinary, wireF32)
	}
	return nil
}

// httpClient makes every call hdbench sends to a live disthd-serve,
// disthd-cluster or `disthd-serve -registry`, all through call.
type httpClient struct {
	hc   *http.Client
	base string // URL prefix every path is appended to, without a trailing slash
	wire string
}

// newHTTPClient targets a live server ("host:port" or a full URL); a
// call the server has not answered within timeout fails.
func newHTTPClient(target, wireFmt string, timeout time.Duration) *httpClient {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	return &httpClient{
		hc:   &http.Client{Timeout: timeout},
		base: strings.TrimRight(target, "/"),
		wire: wireFmt,
	}
}

// tenant returns a client for registry tenant id's /t/{id}/... routes.
func (c *httpClient) tenant(id string) *httpClient {
	t := *c
	t.base += "/t/" + id
	return &t
}

// call sends one request and reads the whole answer. The response is
// non-nil whenever the server answered; err is nil only for a 200. A 429
// is a *throttledError carrying the server's Retry-After, and any other
// status an error naming the call and quoting the body.
func (c *httpClient) call(method, path, contentType string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return resp, nil, fmt.Errorf("%s %s: %w", method, req.URL.Path, err)
	case resp.StatusCode == http.StatusTooManyRequests:
		// Delta-seconds only; the HTTP-date form is not worth parsing here.
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return resp, data, &throttledError{retryAfter: time.Duration(max(secs, 0)) * time.Second}
	case resp.StatusCode != http.StatusOK:
		return resp, data, fmt.Errorf("%s %s: %d: %s", method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp, data, nil
}

// waitReady polls GET /healthz until the target answers at all — any
// status, since a degraded coordinator still serves through its fallback,
// while a disthd-serve listens only once its -demo model is trained — and
// decodes the answer into health when it is non-nil.
func (c *httpClient) waitReady(health any) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body, err := c.call(http.MethodGet, "/healthz", "", nil)
		if resp != nil {
			if health == nil {
				return nil
			}
			return json.Unmarshal(body, health)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never answered /healthz: %w", c.base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// predictBatch runs one /predict_batch round trip in the -wire format.
func (c *httpClient) predictBatch(rows [][]float64) ([]int, error) {
	var (
		payload []byte
		ct      = wire.ContentType
		err     error
	)
	switch c.wire {
	case wireBinary:
		payload, err = wire.AppendMatrixF64(nil, rows, len(rows[0]))
	case wireF32:
		payload, err = wire.AppendMatrixF32(nil, rows, len(rows[0]))
	default:
		payload, err = json.Marshal(map[string][][]float64{"x": rows})
		ct = "application/json"
	}
	if err != nil {
		return nil, err
	}
	resp, body, err := c.call(http.MethodPost, "/predict_batch", ct, payload)
	if err != nil {
		return nil, err
	}
	classes, err := decodeClasses(resp.Header.Get("Content-Type"), body)
	if err == nil && len(classes) != len(rows) {
		err = fmt.Errorf("/predict_batch answered %d classes for %d rows", len(classes), len(rows))
	}
	return classes, err
}

// decodeClasses parses a /predict_batch answer in the format the server
// mirrored back.
func decodeClasses(contentType string, body []byte) ([]int, error) {
	if contentType == wire.ContentType {
		d := wire.NewDecoder(bytes.NewReader(body))
		typ, err := d.Next()
		if err != nil {
			return nil, err
		}
		if typ != wire.TypeClasses {
			return nil, fmt.Errorf("response frame %v, want classes", typ)
		}
		n, err := d.ClassCount()
		if err != nil {
			return nil, err
		}
		classes := make([]int, n)
		return classes, d.Classes(classes)
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Classes, nil
}

// learn feeds one labeled sample through POST /learn: JSON, or a binary
// learn frame for the binary and f32 wires.
func (c *httpClient) learn(x []float64, label int) error {
	payload, ct := wire.AppendLearn(nil, x, label), wire.ContentType
	if c.wire == wireJSON {
		var err error
		if payload, err = json.Marshal(map[string]any{"x": x, "label": label}); err != nil {
			return err
		}
		ct = "application/json"
	}
	_, _, err := c.call(http.MethodPost, "/learn", ct, payload)
	return err
}

// stats decodes GET /stats into out.
func (c *httpClient) stats(out any) error {
	_, body, err := c.call(http.MethodGet, "/stats", "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// swap installs m as the serving model via POST /swap.
func (c *httpClient) swap(m *disthd.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	_, _, err := c.call(http.MethodPost, "/swap", "application/octet-stream", buf.Bytes())
	return err
}

// install registers tenant id on a registry server via PUT /t/{id},
// which trains the spec's model server-side.
func (c *httpClient) install(id string, spec registry.InstallSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	_, _, err = c.call(http.MethodPut, "/t/"+id, "application/json", body)
	return err
}

// latencies collects round-trip times from concurrent clients.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1; 1 is the maximum), or 0
// when nothing was recorded. It sorts, so call it once the load stopped.
func (l *latencies) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.d) == 0 {
		return 0
	}
	sort.Slice(l.d, func(i, j int) bool { return l.d[i] < l.d[j] })
	return l.d[int(q*float64(len(l.d)-1))]
}
