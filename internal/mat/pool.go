package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the two pooling mechanisms the hot paths are built on:
//
//   - a persistent goroutine worker pool behind ParallelFor, so shard fan-out
//     costs a channel send instead of a goroutine spawn, and
//   - a sync.Pool of reusable float64 scratch buffers, so per-shard and
//     per-call temporaries do not allocate in steady state.

// pfTask is one contiguous shard of a ParallelFor loop. done receives one
// value when the shard finishes; it belongs to the ParallelFor call that
// submitted the shard.
type pfTask struct {
	body   func(lo, hi int)
	lo, hi int
	done   chan struct{}
}

var (
	pfOnce  sync.Once
	pfTasks chan pfTask

	// pfInFlight counts the ParallelFor calls running right now.
	pfInFlight atomic.Int32

	// pfDone holds the done channels of finished calls, each drained.
	pfDone = sync.Pool{New: func() any { return make(chan struct{}, runtime.GOMAXPROCS(0)) }}
)

// startPool launches the persistent workers, one per available CPU at first
// use. GOMAXPROCS changes after that point affect shard counts but not the
// pool size; the inline-fallback in ParallelFor keeps correctness either way.
func startPool() {
	w := runtime.GOMAXPROCS(0)
	pfTasks = make(chan pfTask, 8*w)
	for i := 0; i < w; i++ {
		go func() {
			for t := range pfTasks {
				t.body(t.lo, t.hi)
				t.done <- struct{}{}
			}
		}()
	}
}

// Serial reports whether ParallelFor would run entirely inline (only one
// available CPU). Hot paths branch on it to skip constructing the shard
// closure — a heap allocation — when fan-out cannot help; that is what
// keeps the steady-state Into kernels at zero allocations on single-core
// machines.
func Serial() bool { return runtime.GOMAXPROCS(0) <= 1 }

// pfShards is the shard rule of ParallelFor: n items split into
// max(1, procs ÷ inFlight) shards, never more than n, where procs is
// GOMAXPROCS and inFlight the ParallelFor calls running, this one
// included. A lone caller fans out over every core; concurrent callers
// each take their share, so two callers on two cores each run inline.
func pfShards(n, procs, inFlight int) int {
	return min(n, max(1, procs/inFlight))
}

// ParallelFor splits [0, n) into contiguous shards and runs body on each
// shard concurrently on a persistent worker pool. It fans out only onto
// free cores: the shard count is GOMAXPROCS divided by the ParallelFor
// calls in flight, this one included (pfShards), so a lone caller
// (training, or a request on an idle server) spreads over every core,
// while concurrent callers each keep their work on their own core
// instead of streaming shared operands twice and queueing behind each
// other's shards. With one shard it simply calls body(0, n) inline, so
// single-core machines pay no overhead. The final shard always runs on
// the calling goroutine, a full queue degrades to inline execution, and
// while waiting for its own shards the caller steals and runs queued
// tasks — so nested or concurrent ParallelFor calls make progress even
// with every worker busy, instead of deadlocking. Every caller in this
// repository computes each item independently of the partition, so the
// shard count changes timing, never results.
func ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := pfShards(n, runtime.GOMAXPROCS(0), int(pfInFlight.Add(1)))
	defer pfInFlight.Add(-1)
	if workers <= 1 {
		body(0, n)
		return
	}
	pfOnce.Do(startPool)
	chunk := (n + workers - 1) / workers
	shards := (n + chunk - 1) / chunk
	done := pfDone.Get().(chan struct{})
	if cap(done) < shards {
		done = make(chan struct{}, shards)
	}
	submitted := 0
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		select {
		case pfTasks <- pfTask{body: body, lo: lo, hi: lo + chunk, done: done}:
			submitted++
		default:
			// Queue full: run the shard inline rather than block.
			body(lo, lo+chunk)
		}
	}
	body(lo, n)
	// Wait for the submitted shards, working off other queued tasks in the
	// meantime. A stolen task signals its own submitter via its done
	// channel, so cross-call stealing is safe; it is what guarantees
	// system-wide progress when all workers are blocked waiting on nested
	// ParallelFor calls.
	for submitted > 0 {
		select {
		case <-done:
			submitted--
		case t := <-pfTasks:
			t.body(t.lo, t.hi)
			t.done <- struct{}{}
		}
	}
	pfDone.Put(done)
}

// Scratch is a pooled float64 buffer. Obtain one with GetScratch, use Buf,
// and return it with Release. Contents on Get are arbitrary garbage from a
// previous user; callers must overwrite (or use GetScratchZeroed).
type Scratch struct {
	Buf []float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled scratch buffer with Buf of length n and
// unspecified contents.
func GetScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	if cap(s.Buf) < n {
		s.Buf = make([]float64, n)
	}
	s.Buf = s.Buf[:n]
	return s
}

// GetScratchZeroed returns a pooled scratch buffer with Buf of length n,
// all zeros.
func GetScratchZeroed(n int) *Scratch {
	s := GetScratch(n)
	for i := range s.Buf {
		s.Buf[i] = 0
	}
	return s
}

// Release returns the buffer to the pool. The caller must not touch Buf
// afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }
