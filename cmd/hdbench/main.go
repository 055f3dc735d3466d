// Command hdbench regenerates the tables and figures of the DistHD paper's
// evaluation on the synthetic benchmark suite, and doubles as the serving
// load generator.
//
// Usage:
//
//	hdbench -list
//	hdbench -exp fig4                 # one experiment at the default scale
//	hdbench -exp all -scale 0.35      # everything, EXPERIMENTS.md scale
//	hdbench -exp fig8 -quick          # CI-sized smoke run
//	hdbench -loadgen -concurrency 1,8,32,64 -duration 2s
//	hdbench -loadgen -http 127.0.0.1:8080 -wire binary
//	hdbench -loadgen -tenants 3 -pool 2 -dim 128
//	hdbench -driftgen -drift-kinds shift,scale -drift-windows 8
//	hdbench -chaos -duration 6s -concurrency 4
//	hdbench -chaos -http 127.0.0.1:8090 -duration 5s
//
// With -http every live call (/predict_batch, /learn, /healthz, /stats,
// /swap, PUT /t/{id}) goes through one HTTP client, which speaks the -wire
// format: json, binary (the repro/serve/wire frame protocol), or f32
// (binary frames carrying float32 request matrices). -chaos and -loadgen
// -tenants are each written once and run unchanged in-process or live:
// -chaos sends its batches to a coordinator's PredictBatch or the client's
// /predict_batch, and -tenants drives one client interface,
// predictBatch(rows) plus learn(x, label), over a registry tenant between
// Acquire and Release or over the HTTP client. A throttled answer — a live
// 429 or an in-process exhausted registry pool — is backpressure -tenants
// retries, never a drop.
//
// -loadgen runs the closed-loop serving benchmark: it measures per-request
// Predict against the micro-batching serve.Batcher at each concurrency
// level and reports throughput plus the batching speedup (the PERF.md
// serving table). With -http it instead drives a LIVE disthd-serve or
// disthd-cluster over /predict_batch — run it once per -wire format to
// measure the binary wire's end-to-end win on a deployment. With -tenants
// it runs the multi-tenant mixed workload: N heterogeneous tenants on one
// registry (in-process, -pool capping its replica budget, or a live
// `disthd-serve -registry`), 16-row predictions plus a learn share,
// per-tenant p50/p99 and the eviction churn.
//
// -driftgen runs the closed-loop streaming drift benchmark: a labeled
// stream whose distribution drifts (dataset.DriftStream) is served by a
// frozen model, by the ungated adaptive server (every retrain publishes),
// and by the gated adaptive server (challengers must beat the incumbent on
// a stratified holdout), reporting windowed accuracy for all three with
// gate accept/reject counts — the PERF.md streaming table.
// -drift-label-noise flips a fraction of the feedback labels, the
// bad-teacher scenario the gate exists to survive. With -http the adaptive
// side is a LIVE disthd-serve process driven over /predict_batch + /learn,
// with /stats scraped at window boundaries and round-trip latency under
// retrain folded into the table. -quick shrinks it to a CI smoke run.
//
// -chaos runs the fault-injection load harness against the serve/cluster
// coordinator: three real-HTTP workers serve one model, concurrent clients
// stream batches, one worker is killed at a third of the run and another
// stalled at two thirds, and the run FAILS (nonzero exit) unless zero
// requests were dropped; the latency distribution the faults produced
// (p50/p95/p99) is reported. The self-contained run applies -wire to the
// coordinator->worker hop (json or binary). With -http it instead drives a
// live disthd-cluster as a pure load generator while a script — see
// scripts/chaos_smoke.sh — injects the process-level faults.
//
// Experiment output is plain text, one table per experiment, in the same
// layout the paper reports. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id to run, or 'all'")
		scale = flag.Float64("scale", 0.35, "dataset scale (1.0 ≈ a few thousand samples per dataset)")
		seed  = flag.Uint64("seed", 42, "master random seed")
		quick = flag.Bool("quick", false, "shrink sweeps to CI size")
		list  = flag.Bool("list", false, "list experiment ids and exit")

		loadgen = flag.Bool("loadgen", false, "run the closed-loop serving load generator instead of an experiment")
		lgData  = flag.String("dataset", "UCIHAR", "loadgen: synthetic benchmark to train on")
		lgDim   = flag.Int("dim", 512, "loadgen: hypervector dimensionality")
		lgConc  = flag.String("concurrency", "1,8,32,64", "loadgen: comma-separated concurrency sweep")
		lgDur   = flag.Duration("duration", 2*time.Second, "loadgen: measurement window per cell")
		lgBatch = flag.Int("max-batch", 64, "loadgen: batcher MaxBatch")
		lgDelay = flag.Duration("max-delay", 2*time.Millisecond, "loadgen: batcher MaxDelay of the in-process single-row cells (-tenants sends 16-row batches, which do not coalesce)")
		lgScale = flag.Float64("loadgen-scale", 0.2, "loadgen: dataset scale")
		quant   = flag.Bool("quantize", false, "loadgen: add a batched 1-bit packed-tier column with its speedup over batched f32; driftgen (in-process): add a frozen-1bit accuracy column")

		chaos = flag.Bool("chaos", false, "run the fault-injection chaos load harness: spin a coordinator + 3 real-HTTP workers in-process, kill one and stall another mid-load, and fail unless 0 requests were dropped (with -http, drive a live disthd-cluster instead while a script injects the faults)")

		driftgen  = flag.Bool("driftgen", false, "run the closed-loop streaming drift benchmark instead of an experiment")
		dgKinds   = flag.String("drift-kinds", "shift,scale,noise", "driftgen: comma-separated drift kinds")
		dgWindows = flag.Int("drift-windows", 8, "driftgen: evaluation windows over the stream")
		dgSev     = flag.Float64("drift-severity", 3.0, "driftgen: drift severity reached at stream end (features are z-scored)")
		dgFrac    = flag.Float64("drift-fraction", 0.33, "driftgen: fraction of features the drift touches")
		dgDataset = flag.String("drift-dataset", "PAMAP2", "driftgen: synthetic benchmark to stream")
		dgDim     = flag.Int("drift-dim", 256, "driftgen: hypervector dimensionality")
		dgScale   = flag.Float64("drift-scale", 0.6, "driftgen: dataset scale")
		dgWindow  = flag.Int("drift-learn-window", 256, "driftgen: learner feedback window")
		dgRecent  = flag.Int("drift-learn-recent", 32, "driftgen: learner windowed-accuracy span")
		dgThresh  = flag.Float64("drift-threshold", 0.10, "driftgen: windowed-accuracy drop that triggers a retrain")
		dgRetrain = flag.Int("drift-retrain-iters", 6, "driftgen: warm-retrain pipeline iterations")
		dgTrain   = flag.Int("drift-train-iters", 12, "driftgen: cold-start training iterations")
		dgNoise   = flag.Float64("drift-label-noise", 0, "driftgen: fraction of feedback labels flipped to a wrong class (bad-teacher scenario the gate must survive)")
		dgHoldout = flag.Float64("drift-holdout", 0, "driftgen: holdout fraction for the gated run (0 = default 0.20)")
		dgMargin  = flag.Float64("drift-gate-margin", -0.07, "driftgen: holdout-accuracy lead a challenger needs to publish; the default tolerates one standard error of the ~51-sample holdout estimate (sqrt(0.25/51)), so sampling noise never vetoes a challenger while garbage — which loses by far more — still rejects")
		dgHTTP    = flag.String("http", "", "loadgen/driftgen/chaos: drive a LIVE server at this address (host:port or URL) instead of the in-process stack — a disthd-serve for -loadgen/-driftgen, a disthd-cluster coordinator for -chaos")
		wireFmt   = flag.String("wire", "json", "loadgen/driftgen/chaos: wire format for live-HTTP predict/learn calls: json, binary, or f32 (binary frames carrying float32 request matrices — half the bytes, exact for the 1-bit tier); self-contained -chaos uses it coordinator->worker, json or binary only")
		lgTenants = flag.Int("tenants", 0, "loadgen: multi-tenant mixed workload over a serve/registry — N tenants with heterogeneous D, per-tenant p50/p99 and eviction churn (with -http, installs t0..tN-1 on a live -registry server)")
		lgPool    = flag.Int("pool", 0, "loadgen -tenants (in-process): registry replica-pool capacity; set below -tenants to force LRU eviction churn (0 = no eviction)")
	)
	flag.Parse()
	if err := checkWire(*wireFmt); err != nil {
		fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
		os.Exit(2)
	}

	if *chaos {
		conc, err := parseConcurrency(*lgConc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
			os.Exit(2)
		}
		o := chaosOptions{
			dataset:     *lgData,
			dim:         *lgDim,
			scale:       *lgScale,
			seed:        *seed,
			concurrency: conc[0],
			duration:    *lgDur,
			httpTarget:  *dgHTTP,
			wire:        *wireFmt,
		}
		if err := runChaos(o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *driftgen {
		kinds, err := parseDriftKinds(*dgKinds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
			os.Exit(2)
		}
		o := driftgenOptions{
			dataset:      *dgDataset,
			dim:          *dgDim,
			scale:        *dgScale,
			seed:         *seed,
			kinds:        kinds,
			windows:      *dgWindows,
			severity:     *dgSev,
			fraction:     *dgFrac,
			labelNoise:   *dgNoise,
			learnWindow:  *dgWindow,
			recentWindow: *dgRecent,
			driftThresh:  *dgThresh,
			holdout:      *dgHoldout,
			gateMargin:   *dgMargin,
			retrainIters: *dgRetrain,
			trainIters:   *dgTrain,
			httpTarget:   *dgHTTP,
			wire:         *wireFmt,
			quantize:     *quant,
			quick:        *quick,
		}
		if err := runDriftgen(o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: driftgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *loadgen {
		conc, err := parseConcurrency(*lgConc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
			os.Exit(2)
		}
		o := loadgenOptions{
			dataset:     *lgData,
			dim:         *lgDim,
			scale:       *lgScale,
			seed:        *seed,
			concurrency: conc,
			duration:    *lgDur,
			maxBatch:    *lgBatch,
			maxDelay:    *lgDelay,
			quantize:    *quant,
			httpTarget:  *dgHTTP,
			wire:        *wireFmt,
			tenants:     *lgTenants,
			pool:        *lgPool,
		}
		if o.tenants > 0 {
			if err := runLoadgenTenants(o, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hdbench: loadgen: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := runLoadgen(o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("available experiments:")
		for _, id := range experiments.ExperimentIDs() {
			fmt.Printf("  %s\n", id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "hdbench: -exp is required (or -list); e.g. hdbench -exp fig4")
		os.Exit(2)
	}

	o := experiments.Options{Scale: *scale, Seed: *seed, Quick: *quick}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.ExperimentIDs()
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
			fmt.Println("========================================")
			fmt.Println()
		}
		start := time.Now()
		if err := experiments.Run(id, o, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hdbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %.1fs]\n", id, time.Since(start).Seconds())
	}
}
