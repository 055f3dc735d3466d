package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/cluster"
)

// chaosOptions configures the fault-injection load harness.
type chaosOptions struct {
	dataset     string
	dim         int
	scale       float64
	seed        uint64
	concurrency int
	duration    time.Duration
	httpTarget  string // non-empty: drive an external coordinator instead
	wire        string // wire format: client->coordinator in external mode, coordinator->worker in self-contained mode
}

// chaosBatch is the rows-per-request size the harness sends.
const chaosBatch = 8

// chaosTally accumulates one load run's outcome across client goroutines.
type chaosTally struct {
	mu        sync.Mutex
	latencies []time.Duration
	requests  uint64
	rows      uint64
	dropped   uint64 // requests that errored — the invariant is 0
}

// add records one request's outcome.
func (t *chaosTally) add(lat time.Duration, rows int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	t.rows += uint64(rows)
	if err != nil {
		t.dropped++
		return
	}
	t.latencies = append(t.latencies, lat)
}

// percentile returns the p-th latency percentile (latencies must be
// sorted).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// runChaos runs the chaos harness: self-contained (spin three real-HTTP
// workers and a coordinator in-process, then kill one worker and stall
// another mid-load) or, with httpTarget set, as a pure load driver against
// an external coordinator while a script injects the faults. Either way it
// reports dropped requests (which must be zero — a non-zero count is the
// returned error) and the latency distribution the faults produced.
func runChaos(o chaosOptions, w io.Writer) error {
	if o.concurrency < 1 {
		o.concurrency = 1
	}
	_, test, err := disthd.SyntheticBenchmark(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	if o.httpTarget != "" {
		return chaosExternal(o, test, w)
	}
	return chaosSelfContained(o, test, w)
}

// stallGate wraps a worker handler so the harness can wedge the whole
// worker mid-load: while stalled, every request blocks until the caller's
// context dies — exactly how a live-locked process looks from outside.
type stallGate struct {
	stalled atomic.Bool
	h       http.Handler
}

// ServeHTTP implements http.Handler.
func (g *stallGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.stalled.Load() {
		// Drain the body first: the server only notices a client hanging
		// up (and cancels r.Context) once the request body is consumed,
		// so blocking with it unread would wedge the connection for good.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	}
	g.h.ServeHTTP(w, r)
}

// chaosSelfContained runs the whole cluster in-process over real HTTP:
// three stock serve.Servers as workers, a coordinator fanning out to them,
// concurrent clients streaming batches, one worker SIGKILL-equivalent
// (listener closed) at 1/3 of the run and another stalled at 2/3.
func chaosSelfContained(o chaosOptions, test disthd.DataSplit, w io.Writer) error {
	train, _, err := disthd.SyntheticBenchmark(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = o.dim
	cfg.Seed = o.seed
	cfg.RegenRate = 0
	fmt.Fprintf(w, "chaos: training %s model (scale %.2f, D=%d)...\n", o.dataset, o.scale, o.dim)
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		return err
	}

	const workers = 3
	var (
		servers []*serve.Server
		gates   []*stallGate
		hss     []*httptest.Server
		addrs   []string
	)
	for i := 0; i < workers; i++ {
		srv, err := serve.New(m, serve.Options{MaxBatch: 32, MaxDelay: time.Millisecond, Replicas: 1})
		if err != nil {
			return err
		}
		g := &stallGate{h: srv.Handler()}
		hs := httptest.NewServer(g)
		servers = append(servers, srv)
		gates = append(gates, g)
		hss = append(hss, hs)
		addrs = append(addrs, hs.URL)
	}
	defer func() {
		for i, hs := range hss {
			gates[i].stalled.Store(false)
			hs.CloseClientConnections()
			hs.Close()
			servers[i].Close()
		}
	}()

	tr := cluster.NewHTTPTransport()
	tr.Wire = o.wire
	c, err := cluster.New(cluster.Config{
		Workers:     addrs,
		Quorum:      2,
		Transport:   tr,
		CallTimeout: 250 * time.Millisecond,
		Retry: cluster.RetryConfig{
			MaxAttempts: 3,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
		Breaker:       cluster.BreakerConfig{FailureThreshold: 3, OpenFor: 400 * time.Millisecond},
		ProbeInterval: 100 * time.Millisecond,
		Fallback:      m,
		Seed:          o.seed,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	fmt.Fprintf(w, "chaos: %d clients x %v against %d workers over %s wire (kill w0 at 1/3, stall w1 at 2/3)\n",
		o.concurrency, o.duration, workers, o.wire)

	var tally chaosTally
	deadline := time.Now().Add(o.duration)
	killAt := time.Now().Add(o.duration / 3)
	stallAt := time.Now().Add(2 * o.duration / 3)
	var faultOnce [2]sync.Once
	var wg sync.WaitGroup
	for cl := 0; cl < o.concurrency; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				now := time.Now()
				if now.After(killAt) {
					faultOnce[0].Do(func() {
						fmt.Fprintf(w, "chaos: KILLING worker 0 (%s)\n", addrs[0])
						hss[0].CloseClientConnections()
						hss[0].Close()
					})
				}
				if now.After(stallAt) {
					faultOnce[1].Do(func() {
						fmt.Fprintf(w, "chaos: STALLING worker 1 (%s)\n", addrs[1])
						gates[1].stalled.Store(true)
					})
				}
				rows := make([][]float64, chaosBatch)
				for j := range rows {
					rows[j] = test.X[(cl+i*o.concurrency+j)%len(test.X)]
				}
				start := time.Now()
				cls, err := c.PredictBatch(context.Background(), rows)
				if err == nil && len(cls) != len(rows) {
					err = fmt.Errorf("answered %d classes for %d rows", len(cls), len(rows))
				}
				tally.add(time.Since(start), len(rows), err)
			}
		}(cl)
	}
	wg.Wait()

	snap := c.Stats()
	if err := chaosReport(&tally, w); err != nil {
		return err
	}
	fmt.Fprintf(w, "coordinator: fallback_rows=%d quorum_misses=%d retries=%d dropped=%d\n",
		snap.FallbackRows, snap.QuorumMisses, snap.Retries, snap.Dropped)
	for _, ws := range snap.Workers {
		fmt.Fprintf(w, "  worker %-24s breaker=%-9s requests=%-6d failures=%-5d probe_failures=%d\n",
			ws.Addr, ws.Breaker, ws.Requests, ws.Failures, ws.ProbeFailures)
	}
	if snap.Dropped != 0 {
		return fmt.Errorf("coordinator dropped %d rows; the invariant is 0", snap.Dropped)
	}
	return nil
}

// chaosExternal drives a live coordinator over /predict_batch while an
// outside script (scripts/chaos_smoke.sh) injects the faults. It waits for
// the target's /healthz first, so the script needs no readiness dance.
func chaosExternal(o chaosOptions, test disthd.DataSplit, w io.Writer) error {
	base := baseURL(o.httpTarget)
	client := &http.Client{Timeout: 5 * time.Second}
	if err := waitReady(client, base); err != nil {
		return err
	}
	fmt.Fprintf(w, "chaos: %d clients x %v against %s over %s wire\n", o.concurrency, o.duration, base, o.wire)

	var tally chaosTally
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for cl := 0; cl < o.concurrency; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				rows := make([][]float64, chaosBatch)
				for j := range rows {
					rows[j] = test.X[(cl+i*o.concurrency+j)%len(test.X)]
				}
				start := time.Now()
				classes, err := postBatch(client, base, o.wire, rows)
				if err == nil && len(classes) != len(rows) {
					err = fmt.Errorf("answered %d classes for %d rows", len(classes), len(rows))
				}
				tally.add(time.Since(start), len(rows), err)
			}
		}(cl)
	}
	wg.Wait()
	return chaosReport(&tally, w)
}

// waitReady polls /healthz until the target answers at all (any status:
// a degraded coordinator still serves through its fallback).
func waitReady(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("chaos: %s never answered /healthz", base)
}

// chaosReport prints the tally and enforces the zero-dropped invariant.
func chaosReport(t *chaosTally, w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.latencies, func(i, j int) bool { return t.latencies[i] < t.latencies[j] })
	fmt.Fprintf(w, "\nchaos result: requests=%d rows=%d dropped=%d\n", t.requests, t.rows, t.dropped)
	fmt.Fprintf(w, "latency: p50=%v p95=%v p99=%v max=%v\n",
		percentile(t.latencies, 0.50), percentile(t.latencies, 0.95),
		percentile(t.latencies, 0.99), percentile(t.latencies, 1.0))
	if t.dropped != 0 {
		return fmt.Errorf("%d requests dropped; the invariant is 0", t.dropped)
	}
	fmt.Fprintln(w, "invariant held: 0 dropped requests")
	return nil
}
