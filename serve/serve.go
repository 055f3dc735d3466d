// Package serve is the online inference subsystem: it turns a trained
// disthd.Model into a concurrent service that gives individual Predict
// callers batched-GEMM throughput.
//
// The core is the Batcher, which coalesces concurrent single-sample
// requests into micro-batches — size-bounded by Options.MaxBatch,
// latency-bounded by a 2ms linger (a batch below Options.MinFill rows
// waits at most that long for more, then greedily drains whatever is
// queued) — and runs each flush through the zero-allocation
// EncodeBatchInto → PredictBatchInto kernel path on a replica's scratch
// (disthd.Replica). N workers pull from one queue and lease a replica
// per flush from the Batcher's free list. A caller
// that already holds a batch skips the queue through PredictStream, which
// leases from the same list for the whole call: the caller fills the
// replica's input scratch chunk by chunk (the binary wire protocol decodes
// straight into it), and PredictBatch is PredictStream with a fill that
// copies the caller's rows. ReleaseIdle hands the idle replicas to the
// process-wide idle set (disthd.Replica.Release), where the next lease of
// the same shape, this Batcher's or another's, finds them; Close does too.
//
// Around the Batcher sit the Swapper, which hot-swaps the served model
// behind an atomic pointer so online retraining can publish new weights
// mid-traffic without dropping a request; the Learner, which closes the
// DistHD loop online — labeled feedback in, drift detection with
// per-class attribution over windowed accuracy, warm background
// retraining on the feedback window with a severity-scaled budget, and a
// champion/challenger gate (disthd.Gate) that publishes a successor
// through the Swapper only after it beats the serving incumbent on a
// stratified holdout — without ever touching the flush path; and the
// Server, which exposes the whole thing over HTTP/JSON (/predict,
// /predict_batch, /healthz, /stats, /model, /swap, /learn,
// /retrain?force=1, /quantize).
// cmd/disthd-serve is the runnable binary; `hdbench -loadgen` measures the
// throughput-vs-concurrency curve and `hdbench -driftgen` the
// frozen-vs-ungated-vs-gated accuracy under a drifting stream, in-process
// or against a live server (-http).
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	disthd "repro"
)

// ErrClosed is returned by Predict, PredictBatch and PredictStream after
// Close.
var ErrClosed = errors.New("serve: batcher is closed")

// Options configures a Batcher. The zero value picks the defaults
// documented on each field.
type Options struct {
	// MaxBatch flushes a micro-batch when it reaches this many rows.
	// Default 64 — large enough that the blocked GEMM kernels dominate,
	// small enough to bound queueing delay.
	MaxBatch int
	// MinFill is the batch size worth waiting for: the worker blocks up to
	// 2ms after a batch's first row while the batch is below MinFill, then
	// flushes after greedily draining whatever else is already queued.
	// Default 1 — the worker never waits, so a lone request on an idle
	// server flushes at once, while concurrent load still coalesces through
	// the greedy drain. Raise it to trade tail latency for guaranteed
	// occupancy. Clamped to MaxBatch.
	MinFill int
	// Replicas is the number of worker goroutines; each leases a replica
	// (a scratch arena) per flush. Default GOMAXPROCS. The request queue
	// holds 2·Replicas·MaxBatch requests; submitters block (applying
	// backpressure) when it is full.
	Replicas int
}

// withDefaults fills unset fields and validates the rest.
func (o Options) withDefaults() (Options, error) {
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.Replicas == 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.MinFill == 0 {
		o.MinFill = 1
	}
	if o.MinFill > o.MaxBatch {
		o.MinFill = o.MaxBatch
	}
	if o.MaxBatch < 1 || o.Replicas < 1 || o.MinFill < 1 {
		return o, fmt.Errorf("serve: invalid options %+v", o)
	}
	return o, nil
}

// request is one coalescable prediction in flight.
type request struct {
	x     []float64
	start time.Time
	out   chan response
}

// response answers one request.
type response struct {
	class int
	err   error
}

// respPool recycles the single-slot response channels so the steady-state
// submit path does not allocate one per request.
var respPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// Batcher coalesces concurrent single-sample Predict calls into
// micro-batches served by replica workers. Create one with NewBatcher,
// serve traffic from any number of goroutines, and Close it to drain.
type Batcher struct {
	opts     Options
	sw       *Swapper
	stats    *Stats
	features int
	queue    chan request
	// linger bounds how long a forming micro-batch below MinFill rows
	// waits for more after its first row arrived — the worst-case latency
	// a request can pay for batching: 2ms, which only this package's tests
	// change (before the first request).
	linger time.Duration

	mu     sync.RWMutex // guards closed + the right to send on queue
	closed bool
	wg     sync.WaitGroup

	// free holds the idle replicas that workers lease per flush and
	// PredictStream per call. It grows to the peak number of leases at
	// once and is kept across GCs until ReleaseIdle. After Close has
	// released it, a lease still out goes to the process-wide idle set
	// when it comes back.
	freeMu   sync.Mutex
	free     []*disthd.Replica
	released bool
}

// NewBatcher starts opts.Replicas workers serving whatever model sw
// publishes. The Swapper is not the Batcher's: it outlives Close. Hot-swap
// models through Swap or the Swapper. ReleaseIdle gives the replica
// scratch back (serve/registry parks a tenant this way); the workers,
// request queue and their batch buffers stay until Close.
func NewBatcher(sw *Swapper, opts Options) (*Batcher, error) {
	if sw == nil {
		return nil, fmt.Errorf("serve: NewBatcher needs a swapper")
	}
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &Batcher{
		opts:     o,
		sw:       sw,
		stats:    newStats(),
		features: sw.Current().Features(),
		queue:    make(chan request, 2*o.Replicas*o.MaxBatch),
		linger:   2 * time.Millisecond,
	}
	b.wg.Add(o.Replicas)
	for i := 0; i < o.Replicas; i++ {
		go b.worker()
	}
	return b, nil
}

// lease takes an idle replica from the free list, or builds one when none
// is idle. It is built from the model serving now, so the Batcher never
// pins a swapped-out model: replicas are shape-bound, and every swap
// preserves the shape.
func (b *Batcher) lease() (*disthd.Replica, error) {
	b.freeMu.Lock()
	if n := len(b.free); n > 0 {
		rep := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		b.freeMu.Unlock()
		return rep, nil
	}
	b.freeMu.Unlock()
	return b.sw.Current().NewReplica(b.opts.MaxBatch)
}

// giveBack ends a lease: the replica rejoins the free list, or, once
// Close has released the list, goes to the process-wide idle set.
func (b *Batcher) giveBack(rep *disthd.Replica) {
	b.freeMu.Lock()
	if !b.released {
		b.free = append(b.free, rep)
		b.freeMu.Unlock()
		return
	}
	b.freeMu.Unlock()
	rep.Release()
}

// Swapper returns the Batcher's model publication point.
func (b *Batcher) Swapper() *Swapper { return b.sw }

// Model returns the model serving right now.
func (b *Batcher) Model() *disthd.Model { return b.sw.Current() }

// Swap hot-swaps the served model; see Swapper.Swap for the shape
// contract.
func (b *Batcher) Swap(next *disthd.Model) error { return b.sw.Swap(next) }

// Stats returns a point-in-time snapshot of the serving counters.
func (b *Batcher) Stats() Snapshot {
	snap := b.stats.Snapshot()
	snap.Swaps = b.sw.Swaps()
	return snap
}

// Predict classifies one feature vector, riding whatever micro-batch is
// forming. It blocks until the answer is computed — at most roughly the
// 2ms linger plus one batch's compute time — and is safe to call from any
// number of goroutines.
func (b *Batcher) Predict(x []float64) (int, error) {
	if len(x) != b.features {
		b.stats.errors.Add(1)
		return 0, fmt.Errorf("serve: input has %d features, model expects %d", len(x), b.features)
	}
	rc := respPool.Get().(chan response)
	req := request{x: x, start: time.Now(), out: rc}
	// The RLock pairs with Close's Lock: it makes "closed" and the send
	// atomic, so nobody sends on a closed queue. In the uncontended case
	// this is one atomic add — the flush path itself takes no lock.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		respPool.Put(rc)
		return 0, ErrClosed
	}
	b.queue <- req
	b.mu.RUnlock()
	r := <-rc
	respPool.Put(rc)
	b.stats.observeLatency(time.Since(req.start), r.err != nil)
	return r.class, r.err
}

// PredictBatch classifies many rows at once through a leased replica,
// bypassing coalescing — the caller already has a batch, so there is
// nothing to coalesce. It is PredictStream with a fill that width-checks
// the rows and copies them into the replica's scratch; rows beyond
// MaxBatch are chunked transparently.
func (b *Batcher) PredictBatch(rows [][]float64) ([]int, error) {
	out := make([]int, len(rows))
	next := 0
	err := b.PredictStream(len(rows), out, func(dst []float64) error {
		for ; len(dst) > 0; next++ {
			row := rows[next]
			if len(row) != b.features {
				return fmt.Errorf("serve: row %d has %d features, model expects %d", next, len(row), b.features)
			}
			dst = dst[copy(dst, row):]
		}
		return nil
	})
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	return out, nil
}

// PredictStream classifies n rows that the caller writes directly into a
// leased replica's input scratch, skipping the intermediate [][]float64 —
// the decode-into-lease fast path the binary wire protocol rides, and the
// one path a caller's batch takes. fill is called once per chunk of up to
// MaxBatch rows with the scratch slice to populate
// (row-major, chunkRows×features); out must hold at least n slots.
// Steady-state the whole call allocates nothing beyond what fill does.
func (b *Batcher) PredictStream(n int, out []int, fill func(dst []float64) error) error {
	b.mu.RLock()
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if n == 0 {
		return nil
	}
	if n < 0 || len(out) < n {
		b.stats.errors.Add(1)
		return fmt.Errorf("serve: cannot predict %d rows into %d out slots", n, len(out))
	}
	rep, err := b.lease()
	if err != nil {
		b.stats.errors.Add(1)
		return err
	}
	defer b.giveBack(rep)
	maxBatch := rep.MaxBatch()
	for done := 0; done < n; {
		c := min(n-done, maxBatch)
		dst, err := rep.InputScratch(c)
		if err == nil {
			err = fill(dst)
		}
		if err == nil {
			// The model pointer is loaded once per chunk, like the worker
			// flush loop, so a concurrent Swap lands cleanly between chunks.
			err = rep.PredictScratch(b.sw.Current(), c, out[done:done+c])
		}
		if err != nil {
			b.stats.errors.Add(1)
			return err
		}
		done += c
	}
	b.stats.batchReqs.Add(uint64(n))
	return nil
}

// ReleaseIdle hands every idle replica to the process-wide idle set
// (disthd.Replica.Release); the Batcher keeps serving, and a lease out at
// the time rejoins the free list when it comes back.
func (b *Batcher) ReleaseIdle() {
	b.freeMu.Lock()
	defer b.freeMu.Unlock()
	for _, rep := range b.free {
		rep.Release()
	}
	clear(b.free)
	b.free = b.free[:0]
}

// Close stops accepting new requests, waits for every accepted request to
// be answered, stops the workers, and releases every idle replica to the
// process-wide idle set; a PredictStream still running releases its own
// when it returns. It is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.queue)
	b.mu.Unlock()
	b.wg.Wait()
	b.freeMu.Lock()
	b.released = true
	b.freeMu.Unlock()
	b.ReleaseIdle()
}

// worker is one batching loop: block for a first row, linger while the
// batch is below MinFill, greedily drain whatever else is queued, then
// flush through a leased replica's scratch. The model pointer is loaded
// exactly once per flush, so a concurrent Swap lands cleanly between
// batches.
func (b *Batcher) worker() {
	defer b.wg.Done()
	maxBatch, minFill := b.opts.MaxBatch, b.opts.MinFill
	batch := make([]request, 0, maxBatch)
	rows := make([][]float64, 0, maxBatch)
	out := make([]int, maxBatch)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		open := true
		// Linger phase: block for more rows, bounded by the deadline,
		// while the batch is not yet worth flushing.
		if minFill > 1 {
			timer.Reset(b.linger)
			fired := false
		linger:
			for len(batch) < minFill {
				select {
				case req, ok := <-b.queue:
					if !ok {
						open = false
						break linger
					}
					batch = append(batch, req)
				case <-timer.C:
					fired = true
					break linger
				}
			}
			if !fired {
				timer.Stop()
			}
		}
		// Greedy drain: take everything already queued, without waiting.
	drain:
		for open && len(batch) < maxBatch {
			select {
			case req, ok := <-b.queue:
				if !ok {
					open = false
				} else {
					batch = append(batch, req)
				}
			default:
				break drain
			}
		}
		b.flush(batch, rows[:0], out)
		if !open {
			return
		}
	}
}

// flush runs one micro-batch and answers every waiter, counting the batch
// first so Stats read after a Predict returns includes it.
func (b *Batcher) flush(batch []request, rows [][]float64, out []int) {
	for _, req := range batch {
		rows = append(rows, req.x)
	}
	rep, err := b.lease()
	if err == nil {
		_, err = rep.PredictBatch(b.sw.Current(), rows, out[:len(batch)])
		b.giveBack(rep)
	}
	b.stats.observeBatch(len(batch))
	for i, req := range batch {
		if err != nil {
			req.out <- response{err: err}
		} else {
			req.out <- response{class: out[i]}
		}
	}
}
