// Package cluster is the fault-tolerant multi-node serving layer: a
// Coordinator fans /predict_batch out to N worker shards (each a stock
// disthd-serve process) through a pluggable Transport and keeps answering
// when shards misbehave. The Transport prepares each chunk's payload once
// (PrepareBatch, which copies the rows) and every attempt at the chunk
// sends that payload (PredictPrepared), so the caller's rows are free for
// reuse as soon as the batch is answered, even while an abandoned hedge
// is still in flight.
//
// Robustness is layered. Each worker sits behind a three-state circuit
// breaker (closed → open → half-open) fed by both passive request
// failures and an active /healthz probe loop, so a dead shard costs one
// probe per cooldown instead of a timeout per request. A failing chunk of
// a batch is retried on surviving workers with jittered exponential
// backoff under the caller's deadline, and an optional hedge duplicates a
// slow call on a second worker and takes the first answer. When fewer
// than Quorum workers are available — or a chunk exhausts its retries —
// the coordinator serves from a locally held fallback model instead of
// erroring, so partial failure degrades throughput, never availability.
//
// The fallback stays fresh through the federated merge loop: the
// coordinator periodically pulls each shard's model (GET /model), merges
// them via the disthd.AverageModels contract, and the merged candidate
// must beat the current fallback through the champion/challenger
// disthd.Gate on a reference holdout before it is adopted (and, with
// Republish, pushed back to the shards via POST /swap).
//
// Server exposes a Coordinator over the same HTTP/JSON wire format as a
// single worker, so clients and load generators cannot tell the
// difference; cmd/disthd-cluster is the runnable binary and
// `hdbench -chaos` the kill/stall load harness that proves the
// zero-dropped-requests invariant.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	disthd "repro"
	"repro/internal/rng"
)

// ErrClosed is returned by Predict and PredictBatch after Close.
var ErrClosed = errors.New("cluster: coordinator is closed")

// errBreakerOpen marks a call refused locally because the target worker's
// breaker would not admit it.
var errBreakerOpen = errors.New("cluster: worker breaker is open")

// MergeConfig configures the coordinator's federated merge loop.
type MergeConfig struct {
	// Interval is how often the loop pulls and merges shard models; 0
	// disables the background loop (MergeNow still works).
	Interval time.Duration
	// HoldX and HoldY are the labeled reference set the champion/
	// challenger gate judges merged candidates on. Empty means the gate
	// has no evidence and publishes every merge (the disthd.Gate
	// empty-holdout contract).
	HoldX [][]float64
	// HoldY holds the labels for HoldX.
	HoldY []int
	// GateMargin is the holdout-accuracy lead a merged candidate needs
	// over the current fallback to publish (disthd.GateConfig.MinMargin).
	GateMargin float64
	// Republish pushes a published merged model back to every available
	// worker via POST /swap, closing the federated loop globally.
	Republish bool
}

// Config configures a Coordinator. Workers is required; everything else
// has the documented default.
type Config struct {
	// Workers lists the worker shard addresses ("host:port" or URLs).
	Workers []string
	// Transport carries worker calls; default NewHTTPTransport().
	Transport Transport
	// Quorum is the minimum number of available workers for remote
	// serving; below it the whole batch is served from the fallback
	// model. Default is a majority: len(Workers)/2 + 1.
	Quorum int
	// CallTimeout bounds each individual worker call (the caller's
	// context deadline still applies on top). Default 1s.
	CallTimeout time.Duration
	// Retry shapes the per-chunk retry/backoff/hedge policy.
	Retry RetryConfig
	// Breaker shapes every worker's circuit breaker.
	Breaker BreakerConfig
	// ProbeInterval is the active /healthz probe cadence; 0 disables
	// active probing (breakers then learn only from request traffic).
	ProbeInterval time.Duration
	// Fallback is the locally held model that serves when the cluster
	// cannot — the last-merged incumbent, seeded here. Without one, a
	// below-quorum batch is an error (and counts as dropped rows).
	Fallback *disthd.Model
	// Merge configures the federated merge loop that refreshes Fallback.
	Merge MergeConfig
	// Seed drives backoff jitter; runs with equal seeds draw equal
	// jitter sequences.
	Seed uint64
}

// withDefaults fills unset fields and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if len(c.Workers) == 0 {
		return c, fmt.Errorf("cluster: config needs at least one worker")
	}
	if c.Transport == nil {
		c.Transport = NewHTTPTransport()
	}
	if c.Quorum == 0 {
		c.Quorum = len(c.Workers)/2 + 1
	}
	if c.Quorum < 0 || c.Quorum > len(c.Workers) {
		return c, fmt.Errorf("cluster: quorum %d out of range for %d workers", c.Quorum, len(c.Workers))
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = time.Second
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	return c, nil
}

// worker is the coordinator's per-shard state: address, breaker, health
// flags, and counters.
type worker struct {
	addr     string
	br       *breaker
	healthy  atomic.Bool
	degraded atomic.Bool

	requests   atomic.Uint64
	failures   atomic.Uint64
	retries    atomic.Uint64
	hedges     atomic.Uint64
	probeFails atomic.Uint64
}

// Coordinator fans prediction batches out to worker shards with retries,
// hedging, circuit breaking, and local fallback, and runs the optional
// probe and merge loops. Create one with New and stop it with Close; all
// methods are safe for concurrent use.
type Coordinator struct {
	cfg     Config
	tr      Transport
	workers []*worker
	gate    *disthd.Gate

	fallback atomic.Pointer[disthd.Model]

	now   func() time.Time
	rr    atomic.Uint64 // round-robin cursor for retry/hedge targets
	rngMu sync.Mutex
	rng   *rng.Rand // backoff jitter; guarded by rngMu

	requests     atomic.Uint64
	rows         atomic.Uint64
	dropped      atomic.Uint64
	fallbackRows atomic.Uint64
	quorumMisses atomic.Uint64
	retriesTotal atomic.Uint64
	hedgesTotal  atomic.Uint64
	hedgeWins    atomic.Uint64
	merges       atomic.Uint64
	mergePub     atomic.Uint64
	mergeRej     atomic.Uint64
	mergeErrs    atomic.Uint64
	lastMerge    atomic.Int64

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New builds a Coordinator and starts its probe and merge loops (when
// their intervals are configured).
func New(cfg Config) (*Coordinator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:  c,
		tr:   c.Transport,
		gate: disthd.NewGate(disthd.GateConfig{MinMargin: c.Merge.GateMargin}),
		now:  time.Now,
		rng:  rng.New(c.Seed),
		stop: make(chan struct{}),
	}
	for _, addr := range c.Workers {
		w := &worker{addr: addr, br: newBreaker(c.Breaker, co.clock)}
		w.healthy.Store(true)
		co.workers = append(co.workers, w)
	}
	if c.Fallback != nil {
		co.fallback.Store(c.Fallback)
	}
	if c.ProbeInterval > 0 {
		co.wg.Add(1)
		go co.probeLoop()
	}
	if c.Merge.Interval > 0 {
		co.wg.Add(1)
		go co.mergeLoop()
	}
	return co, nil
}

// clock is the injected time source for the breakers (tests substitute a
// manual clock through the now field).
func (c *Coordinator) clock() time.Time { return c.now() }

// Fallback returns the locally held fallback model — the last-merged
// incumbent, or the configured seed model before any merge (nil when
// neither exists).
func (c *Coordinator) Fallback() *disthd.Model { return c.fallback.Load() }

// Close stops the probe and merge loops and fails subsequent predictions
// with ErrClosed. In-flight predictions finish. It is idempotent.
func (c *Coordinator) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.stop)
	c.wg.Wait()
}

// candidates returns the workers whose breakers would currently admit a
// call, self-reported-healthy workers first so degraded shards only see
// traffic when nothing better is available.
func (c *Coordinator) candidates() []*worker {
	var ok, degraded []*worker
	for _, w := range c.workers {
		if !w.br.available() {
			continue
		}
		if w.degraded.Load() {
			degraded = append(degraded, w)
		} else {
			ok = append(ok, w)
		}
	}
	return append(ok, degraded...)
}

// Predict classifies one feature vector — a batch of one through
// PredictBatch.
func (c *Coordinator) Predict(ctx context.Context, x []float64) (int, error) {
	out, err := c.PredictBatch(ctx, [][]float64{x})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictBatch classifies rows across the cluster: the batch is split
// into contiguous chunks over the available workers, each chunk retried
// (and optionally hedged) on surviving workers when its primary fails,
// and any chunk that exhausts the cluster — or an entire batch arriving
// below quorum — is answered by the local fallback model. The caller gets
// an error only for its own malformed input, for a closed coordinator, or
// when remote serving failed AND no fallback is held (those rows count as
// Dropped in Stats; keeping that counter at zero is the point of this
// package).
func (c *Coordinator) PredictBatch(ctx context.Context, rows [][]float64) ([]int, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if fb := c.fallback.Load(); fb != nil {
		for i, r := range rows {
			if len(r) != fb.Features() {
				return nil, &PermanentError{Err: fmt.Errorf(
					"cluster: row %d has %d features, model expects %d", i, len(r), fb.Features())}
			}
		}
	}
	c.requests.Add(1)
	c.rows.Add(uint64(len(rows)))

	cands := c.candidates()
	if len(cands) < c.cfg.Quorum || len(cands) == 0 {
		c.quorumMisses.Add(1)
		return c.serveFallback(rows, fmt.Errorf("cluster: %d of %d workers available, quorum is %d",
			len(cands), len(c.workers), c.cfg.Quorum))
	}

	nChunks := len(cands)
	if nChunks > len(rows) {
		nChunks = len(rows)
	}
	per := (len(rows) + nChunks - 1) / nChunks
	out := make([]int, len(rows))
	errs := make([]error, nChunks)
	var wg sync.WaitGroup
	for i := 0; i < nChunks; i++ {
		lo, hi := i*per, min((i+1)*per, len(rows))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w *worker, lo, hi, slot int) {
			defer wg.Done()
			cls, err := c.callChunk(ctx, w, rows[lo:hi])
			if err != nil {
				cls, err = c.chunkFallback(rows[lo:hi], err)
			}
			if err != nil {
				errs[slot] = err
				return
			}
			copy(out[lo:hi], cls)
		}(cands[i], lo, hi, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveFallback answers a whole batch from the local fallback model,
// counting the rows as dropped (and failing) when none is held.
func (c *Coordinator) serveFallback(rows [][]float64, cause error) ([]int, error) {
	fb := c.fallback.Load()
	if fb == nil {
		c.dropped.Add(uint64(len(rows)))
		return nil, fmt.Errorf("cluster: no fallback model: %w", cause)
	}
	cls, err := fb.PredictBatch(rows)
	if err != nil {
		c.dropped.Add(uint64(len(rows)))
		return nil, fmt.Errorf("cluster: fallback predict: %w", err)
	}
	c.fallbackRows.Add(uint64(len(rows)))
	return cls, nil
}

// chunkFallback degrades one failed chunk to the fallback model, unless
// the failure was the caller's own bad input (PermanentError), which no
// amount of degradation can answer differently.
func (c *Coordinator) chunkFallback(rows [][]float64, cause error) ([]int, error) {
	var pe *PermanentError
	if errors.As(cause, &pe) {
		return nil, cause
	}
	return c.serveFallback(rows, cause)
}

// callChunk runs one chunk against the cluster: the assigned primary
// first, then up to MaxAttempts-1 retries on rotating available workers
// with jittered exponential backoff, respecting ctx the whole way. The
// chunk payload is prepared exactly once here, and every retry and hedge
// reuses it.
func (c *Coordinator) callChunk(ctx context.Context, w *worker, rows [][]float64) ([]int, error) {
	p, err := c.tr.PrepareBatch(rows)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 1; attempt <= c.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			if next := c.pickWorker(w); next != nil {
				w = next
			}
			c.retriesTotal.Add(1)
			w.retries.Add(1)
			if !c.sleepCtx(ctx, c.backoff(attempt-1)) {
				return nil, ctx.Err()
			}
		}
		cls, err := c.callOnce(ctx, w, p)
		if err == nil {
			return cls, nil
		}
		var pe *PermanentError
		if errors.As(err, &pe) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// backoff draws the jittered backoff for the given retry under the
// rng mutex.
func (c *Coordinator) backoff(retry int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.cfg.Retry.backoff(retry, c.rng)
}

// pickWorker rotates over the available workers, preferring one that is
// not exclude; nil when none is available.
func (c *Coordinator) pickWorker(exclude *worker) *worker {
	cands := c.candidates()
	if len(cands) == 0 {
		return nil
	}
	start := int(c.rr.Add(1)) % len(cands)
	for i := range cands {
		if w := cands[(start+i)%len(cands)]; w != exclude {
			return w
		}
	}
	return cands[0]
}

// sleepCtx sleeps d, returning false if ctx or the coordinator stopped
// first.
func (c *Coordinator) sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-c.stop:
		return false
	}
}

// callResult is one worker call's answer inside callOnce.
type callResult struct {
	classes []int
	err     error
	w       *worker
}

// callOnce performs one (possibly hedged) call attempt against w under
// CallTimeout, sending the chunk's prepared payload p. With hedging
// configured, an unanswered primary is duplicated on a second worker
// after HedgeAfter; the first answer wins and cancels the loser, whose
// breaker claim is released without a verdict. Breaker accounting: a
// worker that answers settles Success (a PermanentError still means the
// worker itself behaved), a worker that fails while the parent context
// is live settles Failure, and a worker abandoned mid-cancel settles
// Cancel.
func (c *Coordinator) callOnce(ctx context.Context, w *worker, p PreparedBatch) ([]int, error) {
	if !w.br.Allow() {
		return nil, errBreakerOpen
	}
	cctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	ch := make(chan callResult, 2)
	launch := func(w *worker) {
		w.requests.Add(1)
		go func() {
			cls, err := c.tr.PredictPrepared(cctx, w.addr, p)
			ch <- callResult{classes: cls, err: err, w: w}
		}()
	}
	launch(w)
	pending := 1

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.Retry.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.cfg.Retry.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	var hedged *worker
	var lastErr error
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				r.w.br.Success()
				if hedged != nil && r.w == hedged {
					c.hedgeWins.Add(1)
				}
				cancel()
				c.reap(ch, pending)
				return r.classes, nil
			}
			var pe *PermanentError
			switch {
			case errors.As(r.err, &pe):
				// The worker answered; the input was the problem.
				r.w.br.Success()
				cancel()
				c.reap(ch, pending)
				return nil, r.err
			case ctx.Err() != nil:
				// The caller is gone; nobody's fault.
				r.w.br.Cancel()
			default:
				r.w.br.Failure()
				r.w.failures.Add(1)
			}
			lastErr = r.err
		case <-hedgeC:
			hedgeC = nil
			hw := c.pickWorker(w)
			if hw == nil || hw == w || !hw.br.Allow() {
				continue
			}
			hedged = hw
			c.hedgesTotal.Add(1)
			hw.hedges.Add(1)
			launch(hw)
			pending++
		}
	}
	if lastErr == nil {
		lastErr = cctx.Err()
	}
	return nil, lastErr
}

// reap drains abandoned in-flight calls in the background so their
// breaker claims are settled: a late success still counts as Success, a
// late (canceled) failure releases the claim without a verdict.
func (c *Coordinator) reap(ch chan callResult, pending int) {
	if pending == 0 {
		return
	}
	go func() {
		for i := 0; i < pending; i++ {
			r := <-ch
			if r.err == nil {
				r.w.br.Success()
			} else {
				r.w.br.Cancel()
			}
		}
	}()
}

// probeLoop actively probes every worker's /healthz at ProbeInterval.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, w := range c.workers {
				c.probe(w)
			}
		}
	}
}

// probe runs one active health check and feeds the result to the
// worker's breaker: failures count like request failures (so a dead shard
// opens its breaker without costing a request a timeout), and a success
// through an expired-cooldown breaker is the half-open trial that closes
// it — recovery is detected by probes, not by sacrificed requests.
func (c *Coordinator) probe(w *worker) {
	claimed := false
	if w.br.State() != BreakerClosed {
		if !w.br.Allow() {
			return // open and still cooling down; don't even probe
		}
		claimed = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
	hs, err := c.tr.Health(ctx, w.addr)
	cancel()
	if err != nil {
		w.healthy.Store(false)
		w.probeFails.Add(1)
		w.br.Failure()
		return
	}
	w.healthy.Store(true)
	w.degraded.Store(hs.Status == "degraded")
	if claimed || w.br.State() == BreakerClosed {
		w.br.Success()
	}
}

// MergeReport describes one federated merge round.
type MergeReport struct {
	// Workers lists the shards whose models were fetched and merged.
	Workers []string `json:"workers"`
	// Skipped lists shards that failed to deliver a mergeable model,
	// with the reason.
	Skipped []string `json:"skipped,omitempty"`
	// Verdict is the champion/challenger evaluation of the merged
	// candidate against the previous fallback (nil when there was no
	// incumbent to defend).
	Verdict *disthd.GateVerdict `json:"verdict,omitempty"`
	// Published is whether the merged candidate became the fallback.
	Published bool `json:"published"`
	// Republished counts workers the published model was pushed back to.
	Republished int `json:"republished"`
}

// mergeLoop periodically pulls, merges, gates, and publishes.
func (c *Coordinator) mergeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Merge.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout*time.Duration(1+len(c.workers)))
			_, _ = c.MergeNow(ctx)
			cancel()
		}
	}
}

// MergeNow runs one federated merge round: pull every available shard's
// model, average them under the disthd merge contract, judge the
// candidate against the current fallback through the champion/challenger
// gate on the configured holdout, and on a passing verdict adopt it as
// the fallback (and push it back to the shards when Republish is set).
// Shards that fail to deliver a mergeable model are skipped, not fatal;
// the round errors only when no shard delivered one.
func (c *Coordinator) MergeNow(ctx context.Context) (MergeReport, error) {
	c.merges.Add(1)
	var rep MergeReport
	var models []*disthd.Model
	incumbent := c.fallback.Load()
	for _, w := range c.workers {
		if !w.br.available() {
			rep.Skipped = append(rep.Skipped, w.addr+": breaker open")
			continue
		}
		mctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		m, err := c.tr.FetchModel(mctx, w.addr)
		cancel()
		if err != nil {
			w.failures.Add(1)
			w.br.Failure()
			rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", w.addr, err))
			continue
		}
		w.br.Success()
		if incumbent != nil {
			if err := incumbent.MergeableWith(m); err != nil {
				rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", w.addr, err))
				continue
			}
		}
		models = append(models, m)
		rep.Workers = append(rep.Workers, w.addr)
	}
	if len(models) == 0 {
		c.mergeErrs.Add(1)
		return rep, fmt.Errorf("cluster: merge round fetched no mergeable shard models (skipped: %v)", rep.Skipped)
	}
	merged, err := disthd.AverageModels(models...)
	if err != nil {
		c.mergeErrs.Add(1)
		return rep, fmt.Errorf("cluster: merge: %w", err)
	}
	if incumbent != nil {
		v, err := c.gate.Evaluate(incumbent, merged, c.cfg.Merge.HoldX, c.cfg.Merge.HoldY)
		if err != nil {
			c.mergeErrs.Add(1)
			return rep, fmt.Errorf("cluster: merge gate: %w", err)
		}
		rep.Verdict = &v
		c.lastMerge.Store(c.now().Unix())
		if !v.Publish {
			c.mergeRej.Add(1)
			return rep, nil
		}
	} else {
		c.lastMerge.Store(c.now().Unix())
	}
	c.fallback.Store(merged)
	c.mergePub.Add(1)
	rep.Published = true
	if c.cfg.Merge.Republish {
		for _, w := range c.workers {
			if !w.br.available() {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
			err := c.tr.PushModel(pctx, w.addr, merged)
			cancel()
			if err != nil {
				w.failures.Add(1)
				w.br.Failure()
				continue
			}
			w.br.Success()
			rep.Republished++
		}
	}
	return rep, nil
}

// Stats returns a point-in-time snapshot of the coordinator counters.
func (c *Coordinator) Stats() Snapshot {
	snap := Snapshot{
		Quorum:         c.cfg.Quorum,
		Requests:       c.requests.Load(),
		Rows:           c.rows.Load(),
		Dropped:        c.dropped.Load(),
		FallbackRows:   c.fallbackRows.Load(),
		QuorumMisses:   c.quorumMisses.Load(),
		Retries:        c.retriesTotal.Load(),
		Hedges:         c.hedgesTotal.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		Merges:         c.merges.Load(),
		MergePublished: c.mergePub.Load(),
		MergeRejected:  c.mergeRej.Load(),
		MergeErrors:    c.mergeErrs.Load(),
		LastMergeUnix:  c.lastMerge.Load(),
		HasFallback:    c.fallback.Load() != nil,
	}
	for _, w := range c.workers {
		avail := w.br.available()
		if avail {
			snap.Available++
		}
		snap.Workers = append(snap.Workers, WorkerSnapshot{
			Addr:          w.addr,
			Breaker:       w.br.State().String(),
			Available:     avail,
			Healthy:       w.healthy.Load(),
			Degraded:      w.degraded.Load(),
			Requests:      w.requests.Load(),
			Failures:      w.failures.Load(),
			Retries:       w.retries.Load(),
			Hedges:        w.hedges.Load(),
			ProbeFailures: w.probeFails.Load(),
		})
	}
	snap.QuorumOK = snap.Available >= snap.Quorum
	return snap
}
