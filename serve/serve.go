// Package serve is the online inference subsystem: it turns a trained
// disthd.Model into a concurrent service that gives individual Predict
// callers batched-GEMM throughput.
//
// The core is the Batcher, which coalesces concurrent single-sample
// requests into micro-batches — size-bounded by Options.MaxBatch,
// latency-bounded by Options.MaxDelay (a forming batch lingers at most
// that long waiting to reach Options.MinFill rows, then greedily drains
// whatever is queued) — and runs each flush through the zero-allocation
// EncodeBatchInto → PredictBatchInto kernel path on a per-replica scratch
// lease (disthd.Replica over mat.NewLease). N replica workers pull from one
// queue; nothing on the flush path takes a lock or touches a shared pool.
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
// /predict_batch, /healthz, /stats, /swap, /learn, /retrain?force=1).
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

// ErrClosed is returned by Predict and PredictBatch after Close.
var ErrClosed = errors.New("serve: batcher is closed")

// Options configures a Batcher. The zero value picks the defaults
// documented on each field.
type Options struct {
	// MaxBatch flushes a micro-batch when it reaches this many rows.
	// Default 64 — large enough that the blocked GEMM kernels dominate,
	// small enough to bound queueing delay.
	MaxBatch int
	// MaxDelay bounds how long a forming micro-batch may wait for MinFill
	// rows after its first row arrived — the worst-case latency a request
	// can pay for batching. Default 2ms.
	MaxDelay time.Duration
	// MinFill is the batch size worth waiting for: the worker blocks up to
	// MaxDelay while the batch is below MinFill, then flushes after
	// greedily draining whatever else is already queued. Default 1 — a
	// lone request on an idle server never pays the delay, while
	// concurrent load still coalesces through the greedy drain. Raise it
	// to trade tail latency for guaranteed occupancy. Clamped to MaxBatch.
	MinFill int
	// Replicas is the number of worker goroutines, each with its own
	// scratch lease. Default GOMAXPROCS.
	Replicas int
	// QueueDepth bounds the request queue; submitters block (applying
	// backpressure) when it is full. Default 2·Replicas·MaxBatch.
	QueueDepth int
}

// withDefaults fills unset fields and validates the rest.
func (o Options) withDefaults() (Options, error) {
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.Replicas == 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 2 * o.Replicas * o.MaxBatch
	}
	if o.MinFill == 0 {
		o.MinFill = 1
	}
	if o.MinFill > o.MaxBatch {
		o.MinFill = o.MaxBatch
	}
	if o.MaxBatch < 1 || o.MaxDelay < 0 || o.Replicas < 1 || o.QueueDepth < 1 || o.MinFill < 1 {
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
	repPool  sync.Pool // *disthd.Replica for the direct batch path

	mu     sync.RWMutex // guards closed + the right to send on queue
	closed bool
	wg     sync.WaitGroup
}

// NewBatcher starts opts.Replicas workers serving m. The returned Batcher
// owns a Swapper; hot-swap models through Swap / SwapReader (or the
// Swapper itself, via Swapper()).
func NewBatcher(m *disthd.Model, opts Options) (*Batcher, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sw, err := NewSwapper(m)
	if err != nil {
		return nil, err
	}
	b := &Batcher{
		opts:     o,
		sw:       sw,
		stats:    newStats(),
		features: m.Features(),
		queue:    make(chan request, o.QueueDepth),
	}
	b.repPool.New = func() any {
		// Built from the model serving at Get time, not the construction
		// argument, so the pool never pins a swapped-out model. Replicas
		// themselves are shape-bound, not model-bound, and every swap
		// preserves the shape.
		r, err := b.sw.Current().NewReplica(o.MaxBatch)
		if err != nil {
			panic(err) // MaxBatch was validated; unreachable
		}
		return r
	}
	for i := 0; i < o.Replicas; i++ {
		rep, err := m.NewReplica(o.MaxBatch)
		if err != nil {
			return nil, err
		}
		b.wg.Add(1)
		go b.worker(rep)
	}
	return b, nil
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
// forming. It blocks until the answer is computed — at most roughly
// MaxDelay plus one batch's compute time — and is safe to call from any
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

// PredictBatch classifies many rows at once through a pooled replica,
// bypassing coalescing — the caller already has a batch, so there is
// nothing to coalesce. Rows beyond MaxBatch are chunked transparently.
func (b *Batcher) PredictBatch(rows [][]float64) ([]int, error) {
	b.mu.RLock()
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]int, len(rows))
	rep := b.repPool.Get().(*disthd.Replica)
	_, err := rep.PredictBatch(b.sw.Current(), rows, out)
	b.repPool.Put(rep)
	if err != nil {
		b.stats.errors.Add(1)
		return nil, err
	}
	b.stats.batchReqs.Add(uint64(len(rows)))
	return out, nil
}

// PredictStream classifies n rows that the caller writes directly into a
// pooled replica's leased input scratch, skipping the intermediate
// [][]float64 PredictBatch needs — the decode-into-lease fast path the
// binary wire protocol rides. fill is called once per chunk of up to
// MaxBatch rows with the scratch slice to populate (row-major,
// chunkRows×features); out must hold at least n slots. Steady-state the
// whole call allocates nothing beyond what fill does.
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
	if len(out) < n {
		b.stats.errors.Add(1)
		return fmt.Errorf("serve: out has %d slots for %d rows", len(out), n)
	}
	rep := b.repPool.Get().(*disthd.Replica)
	defer b.repPool.Put(rep)
	maxBatch := rep.MaxBatch()
	for done := 0; done < n; {
		c := n - done
		if c > maxBatch {
			c = maxBatch
		}
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

// Close stops accepting new requests, waits for every accepted request to
// be answered, and stops the workers. It is idempotent.
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
}

// worker is one replica loop: block for a first row, linger up to
// MaxDelay while the batch is below MinFill, greedily drain whatever else
// is queued, then flush through the replica's leased scratch. The model
// pointer is loaded exactly once per flush, so a concurrent Swap lands
// cleanly between batches.
func (b *Batcher) worker(rep *disthd.Replica) {
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
			timer.Reset(b.opts.MaxDelay)
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
		b.flush(rep, batch, rows[:0], out)
		if !open {
			return
		}
	}
}

// flush runs one micro-batch and answers every waiter, counting the batch
// first so Stats read after a Predict returns includes it.
func (b *Batcher) flush(rep *disthd.Replica, batch []request, rows [][]float64, out []int) {
	for _, req := range batch {
		rows = append(rows, req.x)
	}
	m := b.sw.Current()
	_, err := rep.PredictBatch(m, rows, out[:len(batch)])
	b.stats.observeBatch(len(batch))
	for i, req := range batch {
		if err != nil {
			req.out <- response{err: err}
		} else {
			req.out <- response{class: out[i]}
		}
	}
}
