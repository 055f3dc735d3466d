package serve

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	disthd "repro"
)

// testState caches one dataset + two shape-compatible models (different
// training seeds, so they disagree on some inputs) across the package's
// tests.
type testState struct {
	train, test disthd.DataSplit
	a, b        *disthd.Model
}

var (
	stateOnce sync.Once
	state     testState
)

// fixtures trains the shared models once.
func fixtures(t *testing.T) *testState {
	t.Helper()
	stateOnce.Do(func() {
		train, test, err := disthd.SyntheticBenchmark("DIABETES", 0.05, 7)
		if err != nil {
			panic(err)
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim = 64
		cfg.Iterations = 3
		cfg.Seed = 7
		a, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			panic(err)
		}
		cfg2 := cfg
		cfg2.Seed = 8
		b, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg2)
		if err != nil {
			panic(err)
		}
		state = testState{train: train, test: test, a: a, b: b}
	})
	return &state
}

// swapperFor publishes m for a test's Batcher.
func swapperFor(tb testing.TB, m *disthd.Model) *Swapper {
	tb.Helper()
	sw, err := NewSwapper(m)
	if err != nil {
		tb.Fatal(err)
	}
	return sw
}

func TestBatcherFlushOnSize(t *testing.T) {
	s := fixtures(t)
	const batch = 8
	// The linger is effectively infinite: the only way the requests below
	// can complete is a size-triggered flush.
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: batch, MinFill: batch, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.linger = time.Hour

	var wg sync.WaitGroup
	errs := make([]error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Predict(s.test.X[i%s.test.Len()])
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("size-triggered flush never happened")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	snap := b.Stats()
	if snap.Requests != batch {
		t.Fatalf("requests=%d want %d", snap.Requests, batch)
	}
	// With an unreachable deadline the worker can only flush a full batch:
	// exactly one, with every row in it.
	if snap.Batches != 1 || snap.MeanBatchRows != batch {
		t.Fatalf("want one full batch of %d, got %+v", batch, snap)
	}
}

func TestBatcherFlushOnSizeExact(t *testing.T) {
	s := fixtures(t)
	const batch = 4
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: batch, MinFill: batch, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.linger = time.Hour

	// Pre-fill the queue before the worker can drain it: park the worker on
	// a first wave, so the second wave is fully enqueued by the time the
	// worker returns — that wave must flush as exactly one full batch.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		for i := 0; i < batch; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := b.Predict(s.test.X[i%s.test.Len()]); err != nil {
					t.Error(err)
				}
			}(i)
		}
	}
	wg.Wait()
	snap := b.Stats()
	if snap.Requests != 2*batch {
		t.Fatalf("requests=%d want %d", snap.Requests, 2*batch)
	}
	// 8 requests and an unreachable deadline force exactly two full
	// batches, whatever order the submitters ran in.
	if snap.Batches != 2 || snap.MeanBatchRows != batch {
		t.Fatalf("want two full batches of %d, got %+v", batch, snap)
	}
}

func TestBatcherFlushOnDeadline(t *testing.T) {
	s := fixtures(t)
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: 64, MinFill: 64, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// With MinFill == MaxBatch a single request can never fill the batch;
	// only the deadline flush returns it — no earlier than the linger.
	start := time.Now()
	class, err := b.Predict(s.test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if class < 0 || class >= s.train.Classes {
		t.Fatalf("class %d out of range", class)
	}
	elapsed := time.Since(start)
	if elapsed < b.linger {
		t.Fatalf("flushed after %v, before the %v deadline", elapsed, b.linger)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline flush took %v", elapsed)
	}
	snap := b.Stats()
	if snap.Batches != 1 || snap.Requests != 1 {
		t.Fatalf("want exactly one single-row batch, got %+v", snap)
	}
	if snap.MeanBatchRows != 1 {
		t.Fatalf("occupancy %v for a lone request", snap.MeanBatchRows)
	}
}

// TestSwapUnderLoad hammers the batcher from many goroutines while the
// model is swapped back and forth mid-traffic. Every request must be
// answered without error — zero drops — and the counters must account for
// every submission. Run under -race this also proves the atomic hot-swap
// publishes safely.
func TestSwapUnderLoad(t *testing.T) {
	s := fixtures(t)
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: 16, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers    = 16
		perWorker  = 50
		totalSwaps = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := s.test.X[(w*perWorker+i)%s.test.Len()]
				class, err := b.Predict(x)
				if err != nil {
					errCh <- err
					return
				}
				if class < 0 || class >= s.train.Classes {
					t.Errorf("class %d out of range", class)
					return
				}
			}
		}(w)
	}

	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		models := [2]*disthd.Model{s.b, s.a}
		for i := 0; i < totalSwaps; i++ {
			if err := b.Swap(models[i%2]); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	wg.Wait()
	<-swapDone
	b.Close()
	close(errCh)
	for err := range errCh {
		t.Fatalf("request dropped or failed during swaps: %v", err)
	}
	snap := b.Stats()
	if snap.Requests != workers*perWorker {
		t.Fatalf("requests=%d want %d (dropped under swap load)", snap.Requests, workers*perWorker)
	}
	if snap.Errors != 0 {
		t.Fatalf("errors=%d want 0", snap.Errors)
	}
	if snap.Swaps != totalSwaps {
		t.Fatalf("swaps=%d want %d", snap.Swaps, totalSwaps)
	}
}

func TestSwapShapeMismatch(t *testing.T) {
	s := fixtures(t)
	sw, err := NewSwapper(s.a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = 32 // different dimensionality than the fixture's 64
	cfg.Iterations = 2
	cfg.Seed = 9
	narrow, err := disthd.TrainWithConfig(s.train.X, s.train.Y, s.train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Swap(narrow); err == nil {
		t.Fatal("shape-mismatched swap accepted")
	}
	if err := sw.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
	if got := sw.Swaps(); got != 0 {
		t.Fatalf("failed swaps counted: %d", got)
	}
	if sw.Current() != s.a {
		t.Fatal("failed swap replaced the model")
	}
}

func TestBatcherValidation(t *testing.T) {
	s := fixtures(t)
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: 4, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Predict([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-width input accepted")
	}
	if _, err := b.PredictBatch([][]float64{{1}}); err == nil {
		t.Fatal("wrong-width batch accepted")
	}
	// A negative row count is a counted error, not an empty success that
	// wraps batch_requests.
	if err := b.PredictStream(-5, make([]int, 8), func([]float64) error { return nil }); err == nil {
		t.Fatal("negative row count accepted")
	}
	if snap := b.Stats(); snap.Errors != 3 || snap.BatchRequests != 0 {
		t.Fatalf("errors=%d batch_requests=%d after three rejected inputs, want 3/0", snap.Errors, snap.BatchRequests)
	}
	// Oversized direct batches must be chunked, not rejected.
	rows := make([][]float64, 11)
	for i := range rows {
		rows[i] = s.test.X[i%s.test.Len()]
	}
	classes, err := b.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != len(rows) {
		t.Fatalf("got %d classes for %d rows", len(classes), len(rows))
	}
	// Direct-path predictions must agree with the model's own batch path.
	want, err := s.a.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("row %d: direct path %d, model path %d", i, classes[i], want[i])
		}
	}
	b.Close()
	if _, err := b.Predict(s.test.X[0]); err != ErrClosed {
		t.Fatalf("Predict after Close: %v, want ErrClosed", err)
	}
	if _, err := b.PredictBatch(rows); err != ErrClosed {
		t.Fatalf("PredictBatch after Close: %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestOptionDefaults pins what zero options resolve to: the Batcher's
// batch bound, MinFill, replicas and 2ms linger, MinFill's clamp to
// MaxBatch, the refusal of negative sizes, and the learner's retrain floor
// (RecentWindow), cooldown and stall deadline.
func TestOptionDefaults(t *testing.T) {
	s := fixtures(t)
	b, err := NewBatcher(swapperFor(t, s.a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if o := b.opts; o.MaxBatch != 64 || o.MinFill != 1 || o.Replicas != runtime.GOMAXPROCS(0) || b.linger != 2*time.Millisecond {
		t.Fatalf("zero Options resolved to %+v with a %v linger", o, b.linger)
	}
	if o, err := (Options{MaxBatch: 8, MinFill: 100}).withDefaults(); err != nil || o.MinFill != 8 {
		t.Fatalf("MinFill 100 at MaxBatch 8 resolved to %+v (err %v), want it clamped to 8", o, err)
	}
	for _, o := range []Options{{MaxBatch: -1}, {Replicas: -1}, {MinFill: -1}} {
		if _, err := o.withDefaults(); err == nil {
			t.Fatalf("%+v accepted", o)
		}
	}
	l, err := NewLearner(b.Swapper(), LearnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o := l.opts; o.RecentWindow != 64 || o.Cooldown != 10*time.Second || l.stallDeadline != 2*time.Minute {
		t.Fatalf("zero LearnerOptions resolved to %+v with a %v stall deadline", o, l.stallDeadline)
	}
}

// TestBatcherAgreesWithModel checks the coalesced path classifies exactly
// like the underlying model: batching is a throughput optimization, never
// an accuracy change.
func TestBatcherAgreesWithModel(t *testing.T) {
	s := fixtures(t)
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	n := s.test.Len()
	if n > 64 {
		n = 64
	}
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := b.Predict(s.test.X[i])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		want, err := s.a.Predict(s.test.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("sample %d: batched %d, direct %d", i, got[i], want)
		}
	}
}

// TestPredictStreamOutlivesClose holds PredictStream calls inside their
// fill until Close has returned, round after round, and checks that each
// still answers right and that no replica ends up with two owners: a
// replica released twice panics, and the replicas of the shape that come
// back from the idle set afterwards are all distinct.
func TestPredictStreamOutlivesClose(t *testing.T) {
	s := fixtures(t)
	rows := s.test.X[:8]
	cols := len(rows[0])
	want, err := s.a.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 5 // a replica shape no other test in the package uses
	for round := 0; round < 20; round++ {
		b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: maxBatch, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Fill the free list first, so Close releases idle replicas while
		// the streams below still hold theirs.
		if _, err := b.PredictBatch(rows); err != nil {
			t.Fatal(err)
		}
		started, closed := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int, len(rows))
				next := 0
				err := b.PredictStream(len(rows), out, func(dst []float64) error {
					if next == 0 {
						started <- struct{}{}
						<-closed
					}
					for i := 0; i < len(dst)/cols; i++ {
						copy(dst[i*cols:(i+1)*cols], rows[next])
						next++
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i := range out {
					if out[i] != want[i] {
						t.Errorf("round %d row %d: %d, want %d", round, i, out[i], want[i])
						return
					}
				}
			}()
		}
		<-started
		<-started
		b.Close()
		close(closed)
		wg.Wait()
	}
	seen := make(map[*disthd.Replica]bool)
	for i := 0; i < 16; i++ {
		r, err := s.a.NewReplica(maxBatch)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r] {
			t.Fatal("the idle set handed one replica out twice")
		}
		seen[r] = true
	}
	for r := range seen {
		r.Release()
	}
}

// TestReleaseIdleUnderTraffic calls ReleaseIdle over and over while
// coalesced and batch callers hold leases: every answer stays right, the
// Batcher keeps serving, and no replica ends up with two owners — a
// replica released twice panics, and the replicas of the shape that come
// back from the idle set after Close are all distinct.
func TestReleaseIdleUnderTraffic(t *testing.T) {
	s := fixtures(t)
	rows := s.test.X[:12]
	want, err := s.a.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 7 // a replica shape no other test in the package uses
	b, err := NewBatcher(swapperFor(t, s.a), Options{MaxBatch: maxBatch, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	released := make(chan struct{})
	go func() {
		defer close(released)
		for {
			select {
			case <-stop:
				return
			default:
				b.ReleaseIdle()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := b.PredictBatch(rows)
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("PredictBatch = %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := (c + i) % len(rows)
				if got, err := b.Predict(rows[j]); err != nil || got != want[j] {
					t.Errorf("Predict row %d = %d, %v; want %d", j, got, err, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-released
	b.Close()
	seen := make(map[*disthd.Replica]bool)
	for i := 0; i < 16; i++ {
		r, err := s.a.NewReplica(maxBatch)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r] {
			t.Fatal("the idle set handed one replica out twice")
		}
		seen[r] = true
	}
	for r := range seen {
		r.Release()
	}
}
