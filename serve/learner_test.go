package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	disthd "repro"
)

// learnerFixture builds a Batcher + Learner over the shared model.
func learnerFixture(t *testing.T, opts LearnerOptions) (*Batcher, *Learner, *testState) {
	t.Helper()
	st := fixtures(t)
	b, err := NewBatcher(swapperFor(t, st.a), Options{MaxBatch: 8, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	l, err := NewLearner(b.Swapper(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return b, l, st
}

// driftedRow shifts the leading half of x by a constant — inputs the model
// was never trained on.
func driftedRow(x []float64, offset float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for i := 0; i < len(out)/2; i++ {
		out[i] += offset
	}
	return out
}

func TestLearnerFeedTracksAccuracy(t *testing.T) {
	_, l, st := learnerFixture(t, LearnerOptions{RecentWindow: 16})
	var last FeedResult
	for i, x := range st.test.X {
		res, err := l.Feed(x, st.test.Y[i])
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if math.IsNaN(last.WindowAccuracy) || last.WindowAccuracy < 0 || last.WindowAccuracy > 1 {
		t.Fatalf("window accuracy %v out of range", last.WindowAccuracy)
	}
	snap := l.Snapshot()
	if snap.Feedback != uint64(len(st.test.X)) {
		t.Fatalf("feedback counter %d, want %d", snap.Feedback, len(st.test.X))
	}
	if snap.WindowLen == 0 {
		t.Fatal("feedback never entered the window")
	}
	if snap.Retrains != 0 || snap.Retraining {
		t.Fatal("retrain ran without being requested")
	}
}

func TestLearnerFeedValidates(t *testing.T) {
	_, l, st := learnerFixture(t, LearnerOptions{})
	if _, err := l.Feed(st.test.X[0][:3], 0); err == nil {
		t.Fatal("short feature vector accepted")
	}
	if _, err := l.Feed(st.test.X[0], -1); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestLearnerRetrainPublishes(t *testing.T) {
	b, l, st := learnerFixture(t, LearnerOptions{
		RecentWindow: 16, Iterations: 2,
	})
	before := b.Model()
	for i := 0; i < 64; i++ {
		x := driftedRow(st.test.X[i%len(st.test.X)], 3.0)
		if _, err := l.Feed(x, st.test.Y[i%len(st.test.Y)]); err != nil {
			t.Fatal(err)
		}
	}
	started, err := l.Retrain(false)
	if err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("retrain did not start")
	}
	l.Wait()
	snap := l.Snapshot()
	if snap.Retrains != 1 || snap.RetrainErrors != 0 {
		t.Fatalf("retrains=%d errors=%d, want 1/0", snap.Retrains, snap.RetrainErrors)
	}
	if b.Model() == before {
		t.Fatal("retrain did not publish a successor through the swapper")
	}
	// A gated accept publishes twice: the judged challenger immediately,
	// then the full-window refit behind it.
	if b.Swapper().Swaps() != 2 {
		t.Fatalf("swap count %d, want 2 (challenger + refit)", b.Swapper().Swaps())
	}
	if snap.LastRetrainMs <= 0 || snap.LastRetrainUnix == 0 {
		t.Fatalf("retrain timing gauges not set: %+v", snap)
	}
	// The batcher must keep serving the successor.
	if _, err := b.Predict(st.test.X[0]); err != nil {
		t.Fatal(err)
	}
}

func TestLearnerRetrainGates(t *testing.T) {
	_, l, st := learnerFixture(t, LearnerOptions{RecentWindow: 32})
	if started, err := l.Retrain(false); err == nil || started {
		t.Fatal("retrain allowed on an empty window")
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Feed(st.test.X[i], st.test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if started, err := l.Retrain(false); err == nil || started {
		t.Fatal("retrain allowed below the RecentWindow floor")
	}
}

func TestLearnerAutoRetrainsOnDrift(t *testing.T) {
	// GateDisabled: this test pins the ungated auto-retrain publish
	// mechanics on a deliberately noisy fixture whose challengers the gate
	// may (correctly) reject; the gated paths are covered by
	// TestLearnerGate* and the HTTP gate tests.
	b, l, st := learnerFixture(t, LearnerOptions{
		RecentWindow:   32,
		DriftThreshold: 0.2,
		Iterations:     2,
		Auto:           true,
		Cooldown:       time.Millisecond,
		GateDisabled:   true,
	})
	before := b.Model()
	// Clean phase: establish a baseline, no retrain may fire.
	for i, x := range st.test.X {
		if _, err := l.Feed(x, st.test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if snap := l.Snapshot(); snap.Retrains != 0 || snap.Retraining {
		t.Fatal("auto retrain fired on clean data")
	}
	// Severe drift: accuracy collapses; auto retrain must fire and publish.
	started := false
	for i := 0; i < 3*len(st.test.X) && !started; i++ {
		x := driftedRow(st.test.X[i%len(st.test.X)], 4.0)
		res, err := l.Feed(x, st.test.Y[i%len(st.test.Y)])
		if err != nil {
			t.Fatal(err)
		}
		started = res.RetrainStarted
	}
	if !started {
		t.Fatalf("drift never triggered a retrain (snapshot %+v)", l.Snapshot())
	}
	l.Wait()
	snap := l.Snapshot()
	if snap.Retrains == 0 {
		t.Fatalf("auto retrain did not complete: %+v", snap)
	}
	if snap.DriftEvents == 0 {
		t.Fatal("drift events not counted")
	}
	if b.Model() == before {
		t.Fatal("auto retrain did not publish")
	}
}

func TestLearnerRebindsAfterExternalSwap(t *testing.T) {
	b, l, st := learnerFixture(t, LearnerOptions{RecentWindow: 8})
	for i := 0; i < 8; i++ {
		if _, err := l.Feed(st.test.X[i], st.test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Swap(st.b); err != nil {
		t.Fatal(err)
	}
	// The next feed must be judged against the externally swapped model —
	// and rebinding resets the baseline.
	if _, err := l.Feed(st.test.X[0], st.test.Y[0]); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if snap.WindowLen != 9 {
		t.Fatalf("window lost feedback on rebind: %d", snap.WindowLen)
	}
	if got := l.Snapshot().BaselineAccuracy; got != 0 && got != 1 {
		t.Fatalf("baseline not reset on rebind: %v", got)
	}
}

// TestLearnerConcurrentFeedAndRetrain hammers Feed from several goroutines
// while retrains run — the -race gate for the learner's locking scheme.
func TestLearnerConcurrentFeedAndRetrain(t *testing.T) {
	b, l, st := learnerFixture(t, LearnerOptions{
		RecentWindow: 8, Iterations: 1,
		Auto: true, Cooldown: time.Millisecond, DriftThreshold: 0.05,
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				x := st.test.X[(g*37+i)%len(st.test.X)]
				if i%3 == 0 {
					x = driftedRow(x, 4.0)
				}
				if _, err := l.Feed(x, st.test.Y[(g*37+i)%len(st.test.Y)]); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 0 {
					l.Retrain(false) //nolint:errcheck // gating errors are expected here
				}
				if i%10 == 0 {
					l.Snapshot() // reads the round counters a background retrain records
				}
				if _, err := b.Predict(st.test.X[i%len(st.test.X)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Wait()
	snap := l.Snapshot()
	if snap.Feedback != 400 {
		t.Fatalf("feedback counter %d, want 400", snap.Feedback)
	}
}

// TestSwapStorm pins the Swapper contract under a swap storm: many
// concurrent swappers while batched predictions are in flight. Every
// prediction must succeed and agree with one of the two models — no torn
// batch may mix weights.
func TestSwapStorm(t *testing.T) {
	st := fixtures(t)
	b, err := NewBatcher(swapperFor(t, st.a), Options{MaxBatch: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Precompute both models' verdicts on the probe set.
	wantA := make([]int, len(st.test.X))
	wantB := make([]int, len(st.test.X))
	for i, x := range st.test.X {
		if wantA[i], err = st.a.Predict(x); err != nil {
			t.Fatal(err)
		}
		if wantB[i], err = st.b.Predict(x); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var swWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		swWG.Add(1)
		go func(g int) {
			defer swWG.Done()
			models := [2]*disthd.Model{st.a, st.b}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := b.Swap(models[(g+i)%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	var cliWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		cliWG.Add(1)
		go func(g int) {
			defer cliWG.Done()
			for i := 0; i < 200; i++ {
				idx := (g*53 + i) % len(st.test.X)
				got, err := b.Predict(st.test.X[idx])
				if err != nil {
					t.Error(err)
					return
				}
				if got != wantA[idx] && got != wantB[idx] {
					t.Errorf("prediction %d matches neither model (torn swap?)", idx)
					return
				}
			}
		}(g)
	}
	cliWG.Wait()
	close(stop)
	swWG.Wait()
	if b.Swapper().Swaps() == 0 {
		t.Fatal("storm performed no swaps")
	}
}
