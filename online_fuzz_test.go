package disthd

import (
	"sync"
	"testing"
)

// fuzzModel trains one small shared model for the feedback-window fuzzer —
// per-case training would dominate the fuzz loop.
var fuzzModel = struct {
	once sync.Once
	m    *Model
}{}

func fuzzFixture(f *testing.F) *Model {
	f.Helper()
	fuzzModel.once.Do(func() {
		train, _, err := SyntheticBenchmark("UCIHAR", 0.08, 21)
		if err != nil {
			panic(err)
		}
		cfg := DefaultConfig()
		cfg.Dim = 64
		cfg.Iterations = 3
		cfg.Seed = 21
		m, err := TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			panic(err)
		}
		fuzzModel.m = m
	})
	return fuzzModel.m
}

// FuzzFeedbackWindow drives the OnlineLearner's sliding feedback window
// with an arbitrary labeled stream and checks the structural invariants
// every retrain depends on: the window never exceeds its capacity, holds
// exactly the newest insertions in order, the holdout and training slices
// are disjoint and cover the window exactly, and per-class counts agree
// between the window snapshot and the split.
func FuzzFeedbackWindow(f *testing.F) {
	m := fuzzFixture(f)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 7, 8, 9}, uint8(4), uint8(20))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, uint8(3), uint8(0))
	f.Add([]byte{9, 200, 3, 77, 0, 0, 255, 255, 13, 13, 40, 41}, uint8(7), uint8(55))
	f.Add([]byte{42}, uint8(1), uint8(99))
	f.Fuzz(func(t *testing.T, data []byte, window uint8, holdoutPct uint8) {
		w := int(window)%32 + 1
		// 0..0.59; 0 selects the default 0.20 (the config's documented
		// sentinel), which is itself worth fuzzing through.
		hf := float64(holdoutPct%60) / 100
		l, err := NewOnlineLearner(m, OnlineConfig{
			Window:          w,
			RecentWindow:    8,
			HoldoutFraction: hf,
		})
		if err != nil {
			t.Fatal(err)
		}
		k := m.Classes()
		q := m.Features()
		var streamLabels []int
		ops := len(data) / 2
		if ops > 300 {
			ops = 300
		}
		for i := 0; i < ops; i++ {
			label := int(data[2*i]) % k
			x := make([]float64, q)
			x[0] = float64(i) // unique id: disjointness is checked by value
			x[1] = float64(data[2*i+1]) / 255
			for j := 2; j < q; j++ {
				x[j] = float64((i+j)%5) * 0.2
			}
			if _, err := l.Observe(x, label); err != nil {
				t.Fatal(err)
			}
			streamLabels = append(streamLabels, label)
		}

		// Bounded size.
		want := len(streamLabels)
		if want > w {
			want = w
		}
		if l.WindowLen() != want {
			t.Fatalf("window holds %d after %d insertions, capacity %d", l.WindowLen(), len(streamLabels), w)
		}
		X, y := l.Window()
		if len(X) != want || len(y) != want {
			t.Fatalf("snapshot sized %d/%d, want %d", len(X), len(y), want)
		}

		// Contents: exactly the newest `want` insertions, oldest first.
		for i, row := range X {
			if id := len(streamLabels) - want + i; row[0] != float64(id) || y[i] != streamLabels[id] {
				t.Fatalf("window slot %d holds sample %v labeled %d, want sample %d labeled %d",
					i, row[0], y[i], id, streamLabels[id])
			}
		}

		winCount := make([]int, k)
		for _, c := range y {
			winCount[c]++
		}

		// Split: disjoint, covering, label-preserving, count-consistent.
		trainX, trainY, holdX, holdY := l.SplitWindow()
		if len(trainX) != len(trainY) || len(holdX) != len(holdY) {
			t.Fatalf("ragged split %d/%d %d/%d", len(trainX), len(trainY), len(holdX), len(holdY))
		}
		if len(trainX)+len(holdX) != want {
			t.Fatalf("split covers %d+%d, window holds %d", len(trainX), len(holdX), want)
		}
		splitCount := make([]int, k)
		seen := make(map[float64]bool, want)
		consume := func(X [][]float64, y []int) {
			for i, row := range X {
				if seen[row[0]] {
					t.Fatalf("sample id %v appears twice across the split", row[0])
				}
				seen[row[0]] = true
				splitCount[y[i]]++
			}
		}
		consume(trainX, trainY)
		consume(holdX, holdY)
		for c := 0; c < k; c++ {
			if splitCount[c] != winCount[c] {
				t.Fatalf("class %d: split has %d, window %d", c, splitCount[c], winCount[c])
			}
		}
		// A class with a single window sample never loses it to the holdout.
		holdCount := make([]int, k)
		for _, c := range holdY {
			holdCount[c]++
		}
		for c := 0; c < k; c++ {
			if winCount[c] == 1 && holdCount[c] != 0 {
				t.Fatalf("class %d: lone sample held out", c)
			}
		}
	})
}
