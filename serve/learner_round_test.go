package serve

import (
	"bytes"
	"testing"

	disthd "repro"
)

// saved is m's Model.Save snapshot.
func saved(t *testing.T, m *disthd.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLearnerRunsOnlineLearnerRound pins that serve.Learner runs exactly
// disthd.OnlineLearner's retrain round: one labeled stream — clean, then
// drifted, then drifted with flipped labels — fed to both with the same
// options and a nonzero seed must publish byte-identical models with equal
// retrain and rejection counts after every round. Gated, Retrain(false) +
// Wait is compared against RetrainGated (the published refit); ungated,
// GateDisabled is compared against Retrain with the holdout off.
func TestLearnerRunsOnlineLearnerRound(t *testing.T) {
	st := fixtures(t)
	const window, recent, seed = 48, 8, 9
	retrain := disthd.RetrainConfig{Iterations: 2, Seed: seed}
	for _, tc := range []struct {
		name string
		opts LearnerOptions
		cfg  disthd.OnlineConfig
		gate *disthd.Gate // nil: ungated
	}{
		{"gated",
			LearnerOptions{Window: window, RecentWindow: recent, Iterations: 2, GateMargin: 0.05, Seed: seed},
			disthd.OnlineConfig{Window: window, RecentWindow: recent, Retrain: retrain},
			disthd.NewGate(disthd.GateConfig{MinMargin: 0.05})},
		{"ungated",
			LearnerOptions{Window: window, RecentWindow: recent, Iterations: 2, GateDisabled: true, Seed: seed},
			disthd.OnlineConfig{Window: window, RecentWindow: recent, HoldoutFraction: -1, Retrain: retrain},
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBatcher(swapperFor(t, st.a), Options{MaxBatch: 8, Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			l, err := NewLearner(b.Swapper(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ol, err := disthd.NewOnlineLearner(st.a, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 192
			for i := 0; i < n; i++ {
				x, y := st.test.X[i%len(st.test.X)], st.test.Y[i%len(st.test.Y)]
				if i >= n/3 {
					x = driftedRow(x, 2.0)
				}
				if i >= 2*n/3 && i%2 == 0 {
					y = (y + 1) % st.a.Classes()
				}
				if _, err := l.Feed(x, y); err != nil {
					t.Fatal(err)
				}
				if _, err := ol.Observe(x, y); err != nil {
					t.Fatal(err)
				}
				if (i+1)%16 != 0 {
					continue
				}
				if started, err := l.Retrain(false); err != nil || !started {
					t.Fatalf("sample %d: serve retrain started=%v err=%v", i, started, err)
				}
				l.Wait()
				if tc.gate != nil {
					_, _, err = ol.RetrainGated(tc.gate, false)
				} else {
					_, err = ol.Retrain()
				}
				if err != nil {
					t.Fatal(err)
				}
				snap := l.Snapshot()
				if snap.Retrains != ol.Retrains() || snap.GateRejects != ol.Rejections() {
					t.Fatalf("sample %d: serve retrains/rejections %d/%d, OnlineLearner %d/%d",
						i, snap.Retrains, snap.GateRejects, ol.Retrains(), ol.Rejections())
				}
				if !bytes.Equal(saved(t, b.Model()), saved(t, ol.Model())) {
					t.Fatalf("sample %d: serve publishes a different model than the OnlineLearner binds", i)
				}
			}
			t.Logf("%d retrains, %d rejections", ol.Retrains(), ol.Rejections())
			if ol.Retrains() == 0 || (tc.gate != nil && ol.Rejections() == 0) {
				t.Fatalf("stream exercised %d retrains and %d rejections; the comparison needs both",
					ol.Retrains(), ol.Rejections())
			}
		})
	}
}

// TestLearnerRetrainsTheServingModel pins a round's champion to the model
// actually serving. A model swapped in after the last feedback — an
// operator's /swap, or the f32 champion swapped back over a 1-bit tier the
// learner was bound to — is what the next retrain must train and publish a
// successor of, exactly as an OnlineLearner rebound to it would; retraining
// the displaced model would overwrite the swap (or fail on the frozen 1-bit
// model).
func TestLearnerRetrainsTheServingModel(t *testing.T) {
	st := fixtures(t)
	q, err := st.a.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	const window, recent, seed = 48, 8, 9
	for _, tc := range []struct {
		name              string
		feedOn, retrainOn *disthd.Model
	}{
		{"swap", st.a, st.b},
		{"quantize then swap back", q, st.a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBatcher(swapperFor(t, st.a), Options{MaxBatch: 8, Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			l, err := NewLearner(b.Swapper(), LearnerOptions{Window: window, RecentWindow: recent, Iterations: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ol, err := disthd.NewOnlineLearner(st.a, disthd.OnlineConfig{Window: window, RecentWindow: recent,
				Retrain: disthd.RetrainConfig{Iterations: 2, Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			bind := func(m *disthd.Model) {
				if err := b.Swap(m); err != nil {
					t.Fatal(err)
				}
				if err := ol.SetModel(m); err != nil {
					t.Fatal(err)
				}
			}
			bind(tc.feedOn)
			for i := 0; i < window; i++ {
				x, y := driftedRow(st.test.X[i], 2.0), st.test.Y[i]
				if _, err := l.Feed(x, y); err != nil {
					t.Fatal(err)
				}
				if _, err := ol.Observe(x, y); err != nil {
					t.Fatal(err)
				}
			}
			bind(tc.retrainOn)
			if started, err := l.Retrain(true); err != nil || !started {
				t.Fatalf("retrain started=%v err=%v", started, err)
			}
			l.Wait()
			if _, _, err := ol.RetrainGated(disthd.NewGate(disthd.GateConfig{}), true); err != nil {
				t.Fatal(err)
			}
			if snap := l.Snapshot(); snap.Retrains != 1 || snap.RetrainErrors != 0 {
				t.Fatalf("retrains=%d errors=%d, want 1/0", snap.Retrains, snap.RetrainErrors)
			}
			if !bytes.Equal(saved(t, b.Model()), saved(t, ol.Model())) {
				t.Fatal("the round published a successor of a model other than the one serving")
			}
		})
	}
}
