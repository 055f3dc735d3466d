package main

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/serve"
	"repro/serve/registry"
)

// tenantWorkload is one tenant of the mixed workload: its shape, query
// rows with labels, the client that reaches it, and what the closed loop
// measured for it.
type tenantWorkload struct {
	id      string
	dataset string
	dim     int
	rows    [][]float64
	labels  []int // feedback labels for the learn share of the traffic
	target  client

	lat       latencies
	served    atomic.Uint64
	learned   atomic.Uint64 // labeled feedback samples fed through learn
	throttled atomic.Uint64 // throttled answers retried
}

// learnEvery is the mixed workload's learn share: every learnEvery-th
// request per tenant is labeled feedback instead of a prediction, so
// every tenant carries live learner state and eviction churn exercises
// the park/wake learner-continuity path, not just model re-residency.
const learnEvery = 8

// tenantDatasets is the dataset rotation for -tenants: every consecutive
// tenant gets a different feature width and class count, and dims cycle
// ×1/×2/×4 off -dim — the heterogeneous-shape stress the registry's
// shared pool exists for.
var tenantDatasets = []string{"UCIHAR", "ISOLET", "PAMAP2", "DIABETES", "MNIST"}

// runLoadgenTenants is the -tenants mixed-workload mode: N tenants with
// heterogeneous shapes served from ONE registry, concurrent clients
// spraying requestRows-row batches across all of them, per-tenant latency
// quantiles and the eviction churn the shared replica pool produced.
// Every tenant carries a learner and a 1-in-learnEvery labeled-feedback
// share, so LRU churn also exercises learner park/wake continuity. Both
// targets get the same tenants, described by one registry.InstallSpec
// each: in-process the model is trained here (without the server's
// install size limits) into a registry built directly (cap it with -pool
// to force LRU churn); with -http the spec is PUT to /t/{id} on a live
// `disthd-serve -registry`, which trains the same model, and the same
// traffic goes over /t/{id}/predict_batch and /t/{id}/learn in the -wire
// format. A throttled answer is backpressure, retried after the server's
// Retry-After — zero requests dropped.
func runLoadgenTenants(o loadgenOptions, w io.Writer) error {
	var (
		install func(id string, spec registry.InstallSpec, train disthd.DataSplit) (client, error)
		churn   func() (registry.Stats, error)
		where   string
	)
	if o.httpTarget != "" {
		hc := newHTTPClient(o.httpTarget, o.wire, time.Minute)
		install = func(id string, spec registry.InstallSpec, _ disthd.DataSplit) (client, error) {
			return hc.tenant(id), hc.install(id, spec)
		}
		churn = func() (registry.Stats, error) {
			var st registry.Stats
			err := hc.stats(&st)
			return st, err
		}
		where = fmt.Sprintf("on %s, wire=%s", hc.base, o.wire)
	} else {
		pool := o.pool
		if pool == 0 {
			pool = o.tenants
		}
		reg, err := registry.New(pool)
		if err != nil {
			return err
		}
		defer reg.Close()
		install = func(id string, spec registry.InstallSpec, train disthd.DataSplit) (client, error) {
			cfg := disthd.DefaultConfig()
			cfg.Dim, cfg.Seed = spec.Dim, spec.Seed
			m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
			if err != nil {
				return nil, err
			}
			return tenantClient{reg, id}, reg.Install(id, m, registry.Spec{
				Options: serve.Options{MaxBatch: spec.MaxBatch, Replicas: 1},
				Learner: &serve.LearnerOptions{Seed: spec.Seed},
			})
		}
		churn = func() (registry.Stats, error) { return reg.Stats(), nil }
		where = fmt.Sprintf("in-process, pool capacity %d", pool)
	}

	loads := make([]*tenantWorkload, o.tenants)
	for i := range loads {
		spec := registry.InstallSpec{
			Demo:     tenantDatasets[i%len(tenantDatasets)],
			Dim:      o.dim << (i % 3),
			Scale:    o.scale,
			Seed:     o.seed + uint64(i),
			MaxBatch: o.maxBatch,
			Learn:    true,
		}
		// The target trains on this synthetic benchmark; its test split is
		// the tenant's query stream.
		train, test, err := disthd.SyntheticBenchmark(spec.Demo, spec.Scale, spec.Seed)
		if err != nil {
			return err
		}
		if test.Len() < requestRows {
			return fmt.Errorf("tenant t%d: %s at scale %g has fewer than %d query rows", i, spec.Demo, spec.Scale, requestRows)
		}
		t := &tenantWorkload{id: fmt.Sprintf("t%d", i), dataset: spec.Demo, dim: spec.Dim, rows: test.X, labels: test.Y}
		fmt.Fprintf(w, "loadgen: installing tenant %s (%s, D=%d)...\n", t.id, t.dataset, t.dim)
		if t.target, err = install(t.id, spec, train); err != nil {
			return err
		}
		loads[i] = t
	}

	conc := o.concurrency[len(o.concurrency)-1]
	fmt.Fprintf(w, "\nmixed workload: %d tenants %s, %d clients, %d rows/request, %v\n",
		o.tenants, where, conc, requestRows, o.duration)
	start := time.Now()
	if _, err := closedLoopN(conc, o.duration, len(loads), func(i int) error { return loads[i].request() }); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st, err := churn()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%8s %10s %6s %10s %10s %10s %10s %8s %8s\n",
		"tenant", "dataset", "D", "requests", "req/s", "p50(ms)", "p99(ms)", "learns", "429s")
	for _, t := range loads {
		served := t.served.Load()
		fmt.Fprintf(w, "%8s %10s %6d %10d %10.0f %10.2f %10.2f %8d %8d\n",
			t.id, t.dataset, t.dim, served, float64(served)/elapsed.Seconds(),
			ms(t.lat.quantile(0.50)), ms(t.lat.quantile(0.99)), t.learned.Load(), t.throttled.Load())
	}
	fmt.Fprintf(w, "\nregistry churn: %d evictions, %d re-wakes, %d admission rejections\n",
		st.Evictions, st.Wakes, st.AdmissionRejections)
	return nil
}

// request sends the tenant's next request — a requestRows-row prediction,
// or every learnEvery-th time one labeled feedback sample — retrying a
// throttled answer after its backoff.
func (t *tenantWorkload) request() error {
	seq := int(t.served.Load() + t.learned.Load())
	pos := seq % (len(t.rows) - requestRows + 1)
	learn := seq%learnEvery == learnEvery-1
	for {
		start := time.Now()
		var err error
		if learn {
			err = t.target.learn(t.rows[pos], t.labels[pos])
		} else {
			_, err = t.target.predictBatch(t.rows[pos : pos+requestRows])
		}
		var te *throttledError
		switch {
		case errors.As(err, &te):
			t.throttled.Add(1)
			time.Sleep(te.backoff())
			continue
		case err != nil:
			return fmt.Errorf("tenant %s: %w", t.id, err)
		case learn:
			t.learned.Add(1)
		default:
			t.served.Add(1)
			t.lat.add(time.Since(start))
		}
		return nil
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
