package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/registry"
)

// tenantWorkload is one tenant of the mixed workload: its model spec,
// query rows with labels, and the latency samples the closed loop
// collected for it.
type tenantWorkload struct {
	id      string
	dataset string
	dim     int
	rows    [][]float64
	labels  []int // feedback labels for the learn share of the traffic

	mu        sync.Mutex
	latencies []float64 // seconds per request round trip
	served    atomic.Uint64
	learned   atomic.Uint64 // labeled feedback samples fed through /learn
	throttled atomic.Uint64 // 429 / ErrPoolExhausted retries
}

// learnEvery is the mixed workload's learn share: every learnEvery-th
// request per tenant is labeled feedback instead of a prediction, so
// every tenant carries live learner state and eviction churn exercises
// the park/wake learner-continuity path, not just model re-residency.
const learnEvery = 8

// observe records one served request's latency.
func (t *tenantWorkload) observe(d time.Duration) {
	t.served.Add(1)
	t.mu.Lock()
	t.latencies = append(t.latencies, d.Seconds())
	t.mu.Unlock()
}

// quantile returns the q-quantile of the recorded latencies in
// milliseconds (0 when nothing was recorded). Called after the loop
// stops, so the sort is safe.
func (t *tenantWorkload) quantile(q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.latencies) == 0 {
		return 0
	}
	sort.Float64s(t.latencies)
	i := int(q * float64(len(t.latencies)))
	if i >= len(t.latencies) {
		i = len(t.latencies) - 1
	}
	return t.latencies[i] * 1e3
}

// tenantDatasets is the dataset rotation for -tenants: every consecutive
// tenant gets a different feature width and class count, and dims cycle
// ×1/×2/×4 off -dim — the heterogeneous-shape stress the registry's
// shared pool exists for.
var tenantDatasets = []string{"UCIHAR", "ISOLET", "PAMAP2", "DIABETES", "MNIST"}

// buildTenantWorkloads trains the N tenant models (shapes staggered) and
// returns them with their registry install specs.
func buildTenantWorkloads(o loadgenOptions, w io.Writer) ([]*tenantWorkload, []*disthd.Model, error) {
	var (
		loads  []*tenantWorkload
		models []*disthd.Model
	)
	for i := 0; i < o.tenants; i++ {
		tw := &tenantWorkload{
			id:      fmt.Sprintf("t%d", i),
			dataset: tenantDatasets[i%len(tenantDatasets)],
			dim:     o.dim << (i % 3),
		}
		train, test, err := disthd.SyntheticBenchmark(tw.dataset, o.scale, o.seed+uint64(i))
		if err != nil {
			return nil, nil, err
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim = tw.dim
		cfg.Seed = o.seed + uint64(i)
		fmt.Fprintf(w, "loadgen: training tenant %s on %s (D=%d, %d samples)...\n",
			tw.id, tw.dataset, tw.dim, train.Len())
		m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			return nil, nil, err
		}
		tw.rows = test.X
		tw.labels = test.Y
		loads = append(loads, tw)
		models = append(models, m)
	}
	return loads, models, nil
}

// reportTenants prints the per-tenant table and the registry churn line.
func reportTenants(w io.Writer, loads []*tenantWorkload, elapsed time.Duration,
	evictions, wakes, rejections uint64) {
	fmt.Fprintf(w, "\n%8s %10s %6s %10s %10s %10s %10s %8s %8s\n",
		"tenant", "dataset", "D", "requests", "req/s", "p50(ms)", "p99(ms)", "learns", "429s")
	for _, t := range loads {
		served := t.served.Load()
		fmt.Fprintf(w, "%8s %10s %6d %10d %10.0f %10.2f %10.2f %8d %8d\n",
			t.id, t.dataset, t.dim, served,
			float64(served)/elapsed.Seconds(), t.quantile(0.50), t.quantile(0.99),
			t.learned.Load(), t.throttled.Load())
	}
	fmt.Fprintf(w, "\nregistry churn: %d evictions, %d re-wakes, %d admission rejections\n",
		evictions, wakes, rejections)
}

// runLoadgenTenants is the -tenants mixed-workload mode: N tenants with
// heterogeneous shapes served from ONE registry, concurrent clients
// spraying requests across all of them, per-tenant latency quantiles and
// the eviction churn the shared replica pool produced. Every tenant
// carries a learner and a 1-in-learnEvery labeled-feedback share, so LRU
// churn also exercises learner park/wake continuity. In-process it
// builds the registry directly (cap it with -pool to force LRU churn);
// with -http it installs the tenants on a live `disthd-serve -registry`
// via PUT /t/{id} and drives /t/{id}/predict_batch and /t/{id}/learn in
// the -wire format, treating 429 as backpressure to retry after the
// server's Retry-After — zero requests dropped.
func runLoadgenTenants(o loadgenOptions, w io.Writer) error {
	if o.httpTarget != "" {
		return runLoadgenTenantsHTTP(o, w)
	}
	loads, models, err := buildTenantWorkloads(o, w)
	if err != nil {
		return err
	}
	pool := o.pool
	if pool == 0 {
		pool = o.tenants
	}
	reg, err := registry.New(pool)
	if err != nil {
		return err
	}
	defer reg.Close()
	for i, t := range loads {
		err := reg.Install(t.id, models[i], registry.Spec{
			Options: serve.Options{MaxBatch: o.maxBatch, MaxDelay: o.maxDelay, Replicas: 1},
			Learner: &serve.LearnerOptions{Seed: o.seed + uint64(i)},
		})
		if err != nil {
			return err
		}
	}

	conc := o.concurrency[len(o.concurrency)-1]
	fmt.Fprintf(w, "\nmixed workload: %d tenants, pool capacity %d, %d clients, %v\n",
		o.tenants, pool, conc, o.duration)
	start := time.Now()
	closedLoopN(conc, o.duration, len(loads), func(i int) error {
		t := loads[i]
		seq := int(t.served.Load() + t.learned.Load())
		x := t.rows[seq%len(t.rows)]
		learn := seq%learnEvery == learnEvery-1
		for {
			reqStart := time.Now()
			h, err := reg.Acquire(t.id)
			if errors.Is(err, registry.ErrPoolExhausted) {
				t.throttled.Add(1)
				time.Sleep(100 * time.Microsecond) // backpressure: back off, retry, never drop
				continue
			}
			if err != nil {
				return err
			}
			if learn {
				_, err = h.Server().Learner().Feed(x, t.labels[seq%len(t.labels)])
				reg.Release(h)
				if err != nil {
					return err
				}
				t.learned.Add(1)
				return nil
			}
			_, err = h.Server().Batcher().Predict(x)
			reg.Release(h)
			if err != nil {
				return err
			}
			t.observe(time.Since(reqStart))
			return nil
		}
	})
	st := reg.Stats()
	reportTenants(w, loads, time.Since(start), st.Evictions, st.Wakes, st.AdmissionRejections)
	return nil
}

// runLoadgenTenantsHTTP drives a LIVE registry server: installs t0..tN-1
// over PUT /t/{id} (JSON install specs, trained server-side), sprays
// /t/{id}/predict_batch traffic in the selected wire format, and scrapes
// the aggregate /stats for the churn gauges.
func runLoadgenTenantsHTTP(o loadgenOptions, w io.Writer) error {
	base := baseURL(o.httpTarget)
	hc := &http.Client{Timeout: 60 * time.Second}

	// Install the tenants. The server trains from the same demo datasets,
	// and we keep the local test splits as the query streams.
	var loads []*tenantWorkload
	for i := 0; i < o.tenants; i++ {
		tw := &tenantWorkload{
			id:      fmt.Sprintf("t%d", i),
			dataset: tenantDatasets[i%len(tenantDatasets)],
			dim:     o.dim << (i % 3),
		}
		_, test, err := disthd.SyntheticBenchmark(tw.dataset, o.scale, o.seed+uint64(i))
		if err != nil {
			return err
		}
		tw.rows = test.X
		tw.labels = test.Y
		spec, _ := json.Marshal(map[string]any{
			"demo": tw.dataset, "dim": tw.dim, "scale": o.scale,
			"seed": o.seed + uint64(i), "max_batch": o.maxBatch,
			"learn": true,
		})
		fmt.Fprintf(w, "loadgen: installing tenant %s (%s, D=%d) on %s...\n", tw.id, tw.dataset, tw.dim, base)
		req, err := http.NewRequest(http.MethodPut, base+"/t/"+tw.id, strings.NewReader(string(spec)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("PUT /t/%s: %d: %s", tw.id, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		loads = append(loads, tw)
	}

	conc := o.concurrency[len(o.concurrency)-1]
	fmt.Fprintf(w, "\nmixed workload: %d tenants on %s, wire=%s, %d clients, %v\n",
		o.tenants, base, o.wire, conc, o.duration)
	start := time.Now()
	var failed atomic.Bool
	var firstErr atomic.Value
	closedLoopN(conc, o.duration, len(loads), func(i int) error {
		t := loads[i]
		seq := int(t.served.Load() + t.learned.Load())
		pos := seq % (len(t.rows) - lgHTTPBatch + 1)
		rows := t.rows[pos : pos+lgHTTPBatch]
		learn := seq%learnEvery == learnEvery-1
		for {
			reqStart := time.Now()
			var err error
			if learn {
				err = postLearn(hc, base+"/t/"+t.id, o.wire, t.rows[pos], t.labels[pos])
			} else {
				_, err = postBatch(hc, base+"/t/"+t.id, o.wire, rows)
			}
			if errors.Is(err, errThrottled) {
				t.throttled.Add(1)
				// Backpressure: back off for as long as the server's
				// Retry-After asks, retry, never drop.
				time.Sleep(retryAfter(err, time.Millisecond))
				continue
			}
			if err != nil {
				if !failed.Swap(true) {
					firstErr.Store(err)
				}
				return err
			}
			if learn {
				t.learned.Add(1)
				return nil
			}
			t.observe(time.Since(reqStart))
			return nil
		}
	})
	if failed.Load() {
		return firstErr.Load().(error)
	}
	elapsed := time.Since(start)

	// Scrape the aggregate registry gauges.
	var agg struct {
		Evictions  uint64 `json:"evictions"`
		Wakes      uint64 `json:"wakes"`
		Rejections uint64 `json:"admission_rejections"`
	}
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		return err
	}
	reportTenants(w, loads, elapsed, agg.Evictions, agg.Wakes, agg.Rejections)
	return nil
}
