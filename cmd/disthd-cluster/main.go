// Command disthd-cluster runs the fault-tolerant coordinator in front of
// a fleet of disthd-serve worker shards.
//
// Usage:
//
//	disthd-cluster -addr :8090 -workers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083 \
//	    -demo PAMAP2 -dim 128
//
// The coordinator speaks the same HTTP wire formats as a single
// disthd-serve, so clients cannot tell the difference: POST /predict,
// POST /predict_batch (JSON by default, the compact binary frame protocol
// when the request's Content-Type is application/x-disthd-frame), GET
// /healthz, GET /stats, plus POST /merge to force one federated merge
// round. The coordinator itself speaks the frame protocol to its
// workers. Batches fan out across the worker shards
// behind per-worker circuit breakers with retries, jittered backoff, and
// optional hedging; when fewer than -quorum workers are available the
// batch is served by the locally held fallback model instead of failing.
//
// The fallback is seeded from -model (a Model.Save snapshot) or trained
// with -demo, and refreshed by the federated merge loop (-merge-interval):
// shard models are pulled over GET /model, averaged under the
// disthd.AverageModels contract, gated against the incumbent on a holdout
// drawn from the -demo test split (-merge-holdout), and — with -republish
// — pushed back to the shards via POST /swap.
//
// SIGTERM/SIGINT drains in-flight requests, stops the probe and merge
// loops, and prints a final "bye:" stats line. See `hdbench -chaos` for
// the kill/stall load harness that drives this binary in CI.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	disthd "repro"
	"repro/serve/cluster"
)

func main() {
	var (
		addr    = flag.String("addr", ":8090", "listen address")
		workers = flag.String("workers", "", "comma-separated worker shard addresses (host:port or URLs)")
		quorum  = flag.Int("quorum", 0, "minimum available workers for remote serving (0 = majority)")

		model   = flag.String("model", "", "path to a Model.Save snapshot to hold as the local fallback")
		demo    = flag.String("demo", "", "train the fallback on this synthetic benchmark (e.g. PAMAP2) instead of loading one")
		dim     = flag.Int("dim", 512, "hypervector dimensionality for -demo")
		scale   = flag.Float64("scale", 0.2, "dataset scale for -demo")
		seed    = flag.Uint64("seed", 42, "random seed for -demo, backoff jitter, and the merge holdout")
		holdout = flag.Int("merge-holdout", 256, "rows of the -demo test split held out for the merge gate (0 = gate publishes every merge)")

		callTimeout = flag.Duration("call-timeout", time.Second, "per-worker call deadline")
		maxAttempts = flag.Int("max-attempts", 3, "tries per chunk, first call included")
		baseBackoff = flag.Duration("base-backoff", 5*time.Millisecond, "backoff before the first retry (doubles per retry, jittered)")
		maxBackoff  = flag.Duration("max-backoff", 100*time.Millisecond, "backoff growth cap")
		hedgeAfter  = flag.Duration("hedge-after", 0, "duplicate an unanswered call on a second worker after this long (0 = off)")

		brThreshold = flag.Int("breaker-threshold", 5, "consecutive failures that open a worker's circuit breaker")
		brOpenFor   = flag.Duration("breaker-open-for", 2*time.Second, "cooldown before an open breaker admits half-open trials")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "active /healthz probe cadence (0 = passive only)")

		mergeEvery = flag.Duration("merge-interval", 0, "federated merge-loop cadence (0 = only on POST /merge)")
		gateMargin = flag.Float64("gate-margin", 0, "holdout-accuracy lead a merged candidate needs over the incumbent fallback")
		republish  = flag.Bool("republish", false, "push a published merged model back to every worker via /swap")
		strictHlz  = flag.Bool("strict-health", false, "answer /healthz with 503 while below quorum instead of 200 + degraded")
	)
	flag.Parse()

	addrs := splitWorkers(*workers)
	if len(addrs) == 0 {
		log.Fatal("disthd-cluster: -workers is required, e.g. -workers 127.0.0.1:8081,127.0.0.1:8082")
	}
	tr := cluster.NewHTTPTransport()

	fallback, holdX, holdY, err := loadFallback(*model, *demo, *dim, *scale, *seed, *holdout)
	if err != nil {
		log.Fatalf("disthd-cluster: %v", err)
	}
	if fallback == nil {
		log.Printf("WARNING: no fallback model (-model or -demo); below-quorum batches will FAIL and count as dropped")
	} else {
		log.Printf("fallback model: %d features, D=%d, %d classes (merge holdout: %d rows)",
			fallback.Features(), fallback.Dim(), fallback.Classes(), len(holdX))
	}

	c, err := cluster.New(cluster.Config{
		Workers:     addrs,
		Quorum:      *quorum,
		Transport:   tr,
		CallTimeout: *callTimeout,
		Retry: cluster.RetryConfig{
			MaxAttempts: *maxAttempts,
			BaseBackoff: *baseBackoff,
			MaxBackoff:  *maxBackoff,
			HedgeAfter:  *hedgeAfter,
		},
		Breaker: cluster.BreakerConfig{
			FailureThreshold: *brThreshold,
			OpenFor:          *brOpenFor,
		},
		ProbeInterval: *probeEvery,
		Fallback:      fallback,
		Merge: cluster.MergeConfig{
			Interval:   *mergeEvery,
			HoldX:      holdX,
			HoldY:      holdY,
			GateMargin: *gateMargin,
			Republish:  *republish,
		},
		Seed: *seed,
	})
	if err != nil {
		log.Fatalf("disthd-cluster: %v", err)
	}

	srv := cluster.NewServer(c)
	srv.SetStrictHealth(*strictHlz)

	// SIGTERM/SIGINT drain: Server.Close finishes in-flight HTTP requests
	// before stopping the coordinator's probe and merge loops, so no
	// accepted request is dropped by the shutdown itself.
	drained := make(chan struct{})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(drained)
		<-stop
		log.Printf("draining...")
		if err := srv.Close(); err != nil {
			log.Printf("disthd-cluster: shutdown: %v", err)
		}
	}()

	log.Printf("coordinating %d workers on %s (quorum=%d call-timeout=%v attempts=%d hedge=%v probe=%v merge=%v)",
		len(addrs), *addr, c.Stats().Quorum, *callTimeout, *maxAttempts, *hedgeAfter, *probeEvery, *mergeEvery)
	if err := srv.ListenAndServe(*addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("disthd-cluster: %v", err)
	}
	<-drained
	log.Printf("bye: %+v", srv.Stats())
}

// splitWorkers parses the comma-separated worker list.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// loadFallback builds the local fallback model (from a snapshot or a demo
// training run) plus the labeled holdout the merge gate judges candidates
// on. All returns may be nil/empty: the coordinator then serves without a
// safety net and the gate publishes unconditionally.
func loadFallback(path, demo string, dim int, scale float64, seed uint64, holdout int) (*disthd.Model, [][]float64, []int, error) {
	switch {
	case path != "" && demo != "":
		return nil, nil, nil, fmt.Errorf("-model and -demo are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		m, err := disthd.Load(f)
		return m, nil, nil, err
	case demo != "":
		train, test, err := disthd.SyntheticBenchmark(demo, scale, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim = dim
		cfg.Seed = seed
		cfg.RegenRate = 0 // the fallback must stay mergeable with the shards
		log.Printf("training fallback model on %s (scale %.2f, D=%d)...", demo, scale, dim)
		m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		if holdout > len(test.X) {
			holdout = len(test.X)
		}
		return m, test.X[:holdout], test.Y[:holdout], nil
	default:
		return nil, nil, nil, nil
	}
}
