package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	disthd "repro"
	"repro/internal/rng"
)

// fault_test.go holds the deterministic fault-injection harness the
// cluster tests run on: simWorker is one in-memory worker shard backed by
// a real disthd.Model, and faultTransport implements Transport over a set
// of them with seeded, schedule-driven faults — kill-after-N-calls,
// next-N-calls-5xx, probabilistic drops from a splitmix64 stream, stalls
// that block until the context dies, and hard partitions. Nothing draws
// from the wall clock or math/rand, so every failure sequence is exactly
// reproducible under -race and across machines.

// simWorker is one in-memory worker shard with a fault schedule.
type simWorker struct {
	mu       sync.Mutex
	model    *disthd.Model
	degraded bool // self-reported degraded health
	dead     bool // hard partition: every call errors immediately
	stalled  bool // every call blocks until its context dies
	dieAfter int  // become dead after this many more predict calls (<0 = never)
	failNext int  // answer the next N predict calls with a retryable 5xx
	badInput bool // answer every predict call with a PermanentError (a 4xx)

	calls    int // predict calls that reached the worker
	canceled int // predict calls that died with their context while stalled
	swaps    int // models pushed via PushModel
	probes   int // health probes answered
}

// faultTransport is the deterministic in-memory Transport the tests and
// the chaos harness drive the Coordinator with.
type faultTransport struct {
	mu       sync.Mutex
	workers  map[string]*simWorker
	rng      *rng.Rand // drop schedule; deterministic per seed
	dropProb float64   // per-call probability that a predict call 5xxes
}

// newFaultTransport builds a transport over named sim workers.
func newFaultTransport(seed uint64, workers map[string]*simWorker) *faultTransport {
	return &faultTransport{workers: workers, rng: rng.New(seed)}
}

// worker looks a shard up; unknown addresses fail like a refused dial.
func (t *faultTransport) worker(addr string) (*simWorker, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.workers[addr]
	if !ok {
		return nil, fmt.Errorf("fault: no route to %s", addr)
	}
	return w, nil
}

// drop draws the next step of the seeded drop schedule.
func (t *faultTransport) drop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropProb <= 0 {
		return false
	}
	return float64(t.rng.Uint64()%1_000_000)/1_000_000 < t.dropProb
}

// simBatch is faultTransport's PreparedBatch: a copy of the chunk's rows,
// owning its memory the way HTTPTransport's encoded payload does.
type simBatch [][]float64

// PrepareBatch implements Transport. It copies rows, as the Transport
// contract requires: the caller recycles them once it is answered.
func (t *faultTransport) PrepareBatch(rows [][]float64) (PreparedBatch, error) {
	p := make(simBatch, len(rows))
	for i, r := range rows {
		p[i] = slices.Clone(r)
	}
	return p, nil
}

// PredictPrepared implements Transport against the worker's fault
// schedule.
func (t *faultTransport) PredictPrepared(ctx context.Context, addr string, p PreparedBatch) ([]int, error) {
	w, err := t.worker(addr)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.calls++
	if w.dieAfter > 0 {
		w.dieAfter--
		if w.dieAfter == 0 {
			w.dead = true
		}
	}
	dead, stalled, bad := w.dead, w.stalled, w.badInput
	fail := false
	if w.failNext > 0 {
		w.failNext--
		fail = true
	}
	m := w.model
	w.mu.Unlock()

	switch {
	case dead:
		return nil, fmt.Errorf("fault: %s is partitioned", addr)
	case stalled:
		<-ctx.Done()
		w.mu.Lock()
		w.canceled++
		w.mu.Unlock()
		return nil, ctx.Err()
	case bad:
		return nil, &PermanentError{Err: fmt.Errorf("fault: %s: 400 bad input", addr)}
	case fail || t.drop():
		return nil, fmt.Errorf("fault: %s: 503 injected", addr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.PredictBatch(p.(simBatch))
}

// Health implements Transport: dead and stalled workers don't answer.
func (t *faultTransport) Health(ctx context.Context, addr string) (HealthStatus, error) {
	w, err := t.worker(addr)
	if err != nil {
		return HealthStatus{}, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.stalled {
		return HealthStatus{}, fmt.Errorf("fault: %s does not answer /healthz", addr)
	}
	w.probes++
	hs := HealthStatus{Status: "ok", Swaps: uint64(w.swaps)}
	if w.degraded {
		hs.Status = "degraded"
	}
	return hs, nil
}

// FetchModel implements Transport: the worker's current model, by
// reference (the coordinator treats fetched models as read-only inputs).
func (t *faultTransport) FetchModel(ctx context.Context, addr string) (*disthd.Model, error) {
	w, err := t.worker(addr)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil, fmt.Errorf("fault: %s is partitioned", addr)
	}
	if w.model == nil {
		return nil, fmt.Errorf("fault: %s holds no model", addr)
	}
	return w.model, nil
}

// PushModel implements Transport: replaces the worker's model, like a
// /swap.
func (t *faultTransport) PushModel(ctx context.Context, addr string, m *disthd.Model) error {
	w, err := t.worker(addr)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return fmt.Errorf("fault: %s is partitioned", addr)
	}
	w.model = m
	w.swaps++
	return nil
}

// clusterFixtures is the shared dataset + model set, trained once: three
// shard models trained on disjoint thirds of the training split with one
// shared encoder (mergeable), one model with a different encoder seed
// (unmergeable), and a labeled holdout for the merge gate.
type clusterFixtures struct {
	train, test disthd.DataSplit
	shards      [3]*disthd.Model
	alien       *disthd.Model // different encoder seed: fails MergeableWith
}

var (
	fixturesOnce sync.Once
	fixturesVal  clusterFixtures
)

// fixtures trains the shared models once per test binary. Tiny settings —
// the host may be single-core and the chaos tests run under -race.
func fixtures(t testing.TB) *clusterFixtures {
	t.Helper()
	fixturesOnce.Do(func() {
		train, test, err := disthd.SyntheticBenchmark("DIABETES", 0.05, 7)
		if err != nil {
			panic(err)
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim = 64
		cfg.Iterations = 3
		cfg.Seed = 7
		cfg.RegenRate = 0 // merging requires a frozen shared encoder
		n := len(train.X)
		var shards [3]*disthd.Model
		for i := range shards {
			lo, hi := i*n/3, (i+1)*n/3
			m, err := disthd.TrainWithConfig(train.X[lo:hi], train.Y[lo:hi], train.Classes, cfg)
			if err != nil {
				panic(err)
			}
			shards[i] = m
		}
		acfg := cfg
		acfg.Seed = 8 // different encoder: MergeableWith must reject it
		alien, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, acfg)
		if err != nil {
			panic(err)
		}
		fixturesVal = clusterFixtures{train: train, test: test, shards: shards, alien: alien}
	})
	return &fixturesVal
}

// sim builds one healthy simWorker serving m.
func sim(m *disthd.Model) *simWorker { return &simWorker{model: m, dieAfter: -1} }

// newTestCoordinator wires a coordinator over sim workers with fast test
// timings, registering cleanup. Callers mutate cfg via mod before New.
func newTestCoordinator(t *testing.T, workers map[string]*simWorker, mod func(*Config)) (*Coordinator, *faultTransport) {
	t.Helper()
	tr := newFaultTransport(1, workers)
	addrs := make([]string, 0, len(workers))
	for addr := range workers {
		addrs = append(addrs, addr)
	}
	// Map order is random; tests that care about which worker is primary
	// pass explicit Workers through mod.
	cfg := Config{
		Workers:     addrs,
		Transport:   tr,
		CallTimeout: 2 * time.Second, // generous: tests drive faults explicitly
		Retry:       RetryConfig{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: 2 * time.Microsecond},
		Seed:        11,
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, tr
}
