package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/serve"
)

// loadgenOptions configures the closed-loop serving load generator.
type loadgenOptions struct {
	dataset     string
	dim         int
	scale       float64
	seed        uint64
	concurrency []int
	duration    time.Duration
	maxBatch    int
	maxDelay    time.Duration
	quantize    bool
	httpTarget  string // non-empty: drive a live disthd-serve instead
	wire        string // wire format for the live target: json, binary, or binary+f32
	tenants     int    // -tenants: multi-tenant mixed-workload mode
	pool        int    // -tenants in-process: registry pool capacity (0 = tenants)
}

// parseConcurrency parses a comma-separated concurrency sweep.
func parseConcurrency(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad concurrency level %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runLoadgen trains a model, then drives it closed-loop — every virtual
// client issues one request, waits for the answer, repeats — through both
// the per-request Predict path and the micro-batching serve.Batcher, and
// prints throughput vs. concurrency with the batching speedup. With
// -quantize the sweep adds a third column: the same Batcher serving the
// 1-bit packed tier, with its speedup over the batched f32 path. This is
// the measurement behind PERF.md's serving tables.
func runLoadgen(o loadgenOptions, w io.Writer) error {
	if o.httpTarget != "" {
		return runLoadgenHTTP(o, w)
	}
	train, test, err := disthd.SyntheticBenchmark(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = o.dim
	cfg.Seed = o.seed
	fmt.Fprintf(w, "loadgen: training %s model (D=%d, %d train samples)...\n",
		o.dataset, o.dim, train.Len())
	m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		return err
	}
	var qm *disthd.Model
	if o.quantize {
		if qm, err = m.Quantize1Bit(); err != nil {
			return err
		}
	}

	// batcherLoop measures one closed-loop cell through a fresh Batcher
	// over the given model, returning req/s and mean batch occupancy.
	batcherLoop := func(model *disthd.Model, conc, minFill int) (float64, float64, error) {
		bat, err := serve.NewBatcher(model, serve.Options{
			MaxBatch: o.maxBatch,
			MinFill:  minFill,
			MaxDelay: o.maxDelay,
			Replicas: 1,
		})
		if err != nil {
			return 0, 0, err
		}
		rate := closedLoop(conc, o.duration, test.X, func(x []float64) error {
			_, err := bat.Predict(x)
			return err
		})
		snap := bat.Stats()
		bat.Close()
		return rate, snap.MeanBatchRows, nil
	}

	fmt.Fprintf(w, "closed-loop, %v per cell, %d query rows\n\n", o.duration, test.Len())
	if o.quantize {
		fmt.Fprintf(w, "%12s %16s %16s %10s %16s %12s %12s\n",
			"concurrency", "direct req/s", "batched req/s", "speedup", "1bit req/s", "1bit/f32", "rows/batch")
	} else {
		fmt.Fprintf(w, "%12s %16s %16s %10s %12s\n",
			"concurrency", "direct req/s", "batched req/s", "speedup", "rows/batch")
	}
	for _, conc := range o.concurrency {
		direct := closedLoop(conc, o.duration, test.X, func(x []float64) error {
			_, err := m.Predict(x)
			return err
		})

		minFill := conc / 2
		if minFill < 1 {
			minFill = 1
		}
		batched, meanRows, err := batcherLoop(m, conc, minFill)
		if err != nil {
			return err
		}
		if o.quantize {
			packed, _, err := batcherLoop(qm, conc, minFill)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12d %16.0f %16.0f %9.2fx %16.0f %11.2fx %12.1f\n",
				conc, direct, batched, batched/direct, packed, packed/batched, meanRows)
			continue
		}
		fmt.Fprintf(w, "%12d %16.0f %16.0f %9.2fx %12.1f\n",
			conc, direct, batched, batched/direct, meanRows)
	}
	return nil
}

// lgHTTPBatch is how many rows ride one /predict_batch request in
// live-HTTP loadgen mode — big enough that the wire codec dominates the
// per-request cost, matching the PERF.md wire tables.
const lgHTTPBatch = 16

// runLoadgenHTTP drives a LIVE disthd-serve (or disthd-cluster — same
// wire surface) closed-loop over /predict_batch in the selected wire
// format. Run it once with -wire json and once with -wire binary to
// measure the frame protocol's end-to-end win on a real deployment; this
// is also the binary-wire smoke `make ci` runs via
// scripts/wire_smoke.sh.
func runLoadgenHTTP(o loadgenOptions, w io.Writer) error {
	_, test, err := disthd.SyntheticBenchmark(o.dataset, o.scale, o.seed)
	if err != nil {
		return err
	}
	base := baseURL(o.httpTarget)
	hc := &http.Client{Timeout: 30 * time.Second}
	if err := waitReady(hc, base); err != nil {
		return err
	}

	// Pre-slice the query stream into fixed-size request batches.
	var chunks [][][]float64
	for pos := 0; pos+lgHTTPBatch <= len(test.X); pos += lgHTTPBatch {
		chunks = append(chunks, test.X[pos:pos+lgHTTPBatch])
	}
	if len(chunks) == 0 {
		return fmt.Errorf("dataset %s at scale %g has fewer than %d query rows", o.dataset, o.scale, lgHTTPBatch)
	}

	fmt.Fprintf(w, "loadgen: live target %s, wire=%s, %d rows/request, %v per cell\n\n",
		base, o.wire, lgHTTPBatch, o.duration)
	fmt.Fprintf(w, "%12s %12s %14s\n", "concurrency", "req/s", "rows/s")
	for _, conc := range o.concurrency {
		var failed atomic.Bool
		var firstErr atomic.Value
		rate := closedLoopN(conc, o.duration, len(chunks), func(i int) error {
			classes, err := postBatch(hc, base, o.wire, chunks[i])
			if err == nil && len(classes) != lgHTTPBatch {
				err = fmt.Errorf("answered %d classes for %d rows", len(classes), lgHTTPBatch)
			}
			if err != nil && !failed.Swap(true) {
				firstErr.Store(err)
			}
			return err
		})
		if failed.Load() {
			return firstErr.Load().(error)
		}
		fmt.Fprintf(w, "%12d %12.0f %14.0f\n", conc, rate, rate*lgHTTPBatch)
	}
	return nil
}

// closedLoopN runs conc clients for about d, each calling do with a
// rotating index below n, and returns calls/second.
func closedLoopN(conc int, d time.Duration, n int, do func(int) error) float64 {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
		stop  atomic.Bool
	)
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			calls := 0
			for !stop.Load() {
				if err := do((c + calls) % n); err != nil {
					break
				}
				calls++
			}
			total.Add(int64(calls))
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// closedLoop runs conc clients for about d, each predicting rotating
// rows, and returns requests/second.
func closedLoop(conc int, d time.Duration, rows [][]float64, predict func([]float64) error) float64 {
	return closedLoopN(conc, d, len(rows), func(i int) error { return predict(rows[i]) })
}
