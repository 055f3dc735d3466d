package disthd

import (
	"reflect"
	"testing"
)

// feedStream observes rows[i] with labels[i] into l, failing the test on
// any error.
func feedStream(t *testing.T, l *OnlineLearner, rows [][]float64, labels []int) {
	t.Helper()
	for i, x := range rows {
		if _, err := l.Observe(x, labels[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// cloneLearnerState deep-copies st, so a test can hold a state whose
// buffers have moved into a learner since.
func cloneLearnerState(st *LearnerState) *LearnerState {
	cp := *st
	cp.WinX = append([]float64(nil), st.WinX...)
	cp.WinY = append([]int(nil), st.WinY...)
	cp.Recent = append([]bool(nil), st.Recent...)
	cp.RecentLabel = append([]int(nil), st.RecentLabel...)
	cp.ClsRecentN = append([]int(nil), st.ClsRecentN...)
	cp.ClsRecentOK = append([]int(nil), st.ClsRecentOK...)
	cp.ClsBaseN = append([]int(nil), st.ClsBaseN...)
	cp.ClsBaseOK = append([]int(nil), st.ClsBaseOK...)
	return &cp
}

// peekState returns a deep copy of l's state and leaves l live: the state
// moves out, is copied, and moves straight back.
func peekState(t *testing.T, l *OnlineLearner) *LearnerState {
	t.Helper()
	m, cfg := l.m, l.cfg
	st := l.Export()
	cp := cloneLearnerState(st)
	back, err := NewOnlineLearnerFromState(m, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	*l = *back
	return cp
}

// TestOnlineLearnerExportRestoreBitwise pins the park/wake contract at its
// root: the state Export moves out restores through
// NewOnlineLearnerFromState into a learner bit-identical to a twin that
// never moved — window contents, rings, baseline, cursors, counters — and
// the two stay in lockstep on any further shared stream. It also pins the
// move itself: the window changes owner without a copy, the exported
// learner is spent, and a state restores once.
func TestOnlineLearnerExportRestoreBitwise(t *testing.T) {
	m, _, test := onlineFixture(t, 31)
	cfg := OnlineConfig{Window: 48, RecentWindow: 16, Seed: 9}
	var ls [2]*OnlineLearner
	for i := range ls {
		l, err := NewOnlineLearner(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Feed past the window capacity so the ring has wrapped, with a
		// drifted tail so the rings hold a mix of outcomes.
		n := 64
		for i := 0; i < n; i++ {
			x := test.X[i%len(test.X)]
			if i >= n/2 {
				x = shiftRow(x, 3)
			}
			if _, err := l.Observe(x, test.Y[i%len(test.Y)]); err != nil {
				t.Fatal(err)
			}
		}
		ls[i] = l
	}
	l, twin := ls[0], ls[1]
	win := &l.winX[0]
	st := l.Export()
	if _, err := l.Observe(test.X[0], test.Y[0]); err == nil {
		t.Fatal("a spent learner accepted feedback")
	}
	if l.Observations() != 0 || l.WindowLen() != 0 || len(l.DriftReport().Classes) != 0 {
		t.Fatal("a spent learner still reports state it handed over")
	}
	restored, err := NewOnlineLearnerFromState(m, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if &restored.winX[0] != win {
		t.Fatal("restore copied the window instead of taking it over")
	}
	if _, err := NewOnlineLearnerFromState(m, cfg, st); err == nil {
		t.Fatal("a state restored twice; the first restore left it holding the buffers")
	}
	if !reflect.DeepEqual(peekState(t, restored), peekState(t, twin)) {
		t.Fatal("restored learner differs from its twin")
	}
	if got, want := restored.WindowAccuracy(), twin.WindowAccuracy(); got != want {
		t.Fatalf("restored window accuracy %v, want %v", got, want)
	}
	if got, want := restored.BaselineAccuracy(), twin.BaselineAccuracy(); got != want {
		t.Fatalf("restored baseline accuracy %v, want %v", got, want)
	}
	// Both learners must evolve identically from here.
	feedStream(t, twin, test.X[:32], test.Y[:32])
	feedStream(t, restored, test.X[:32], test.Y[:32])
	if !reflect.DeepEqual(peekState(t, restored), peekState(t, twin)) {
		t.Fatal("twin and restored learners diverged on an identical continuation stream")
	}
}

// TestOnlineLearnerExportRestoreReservoir pins the sampler continuity:
// in reservoir mode, admission after a restore must draw exactly the
// random stream a learner that never moved draws — otherwise the two
// windows diverge even on identical input.
func TestOnlineLearnerExportRestoreReservoir(t *testing.T) {
	m, _, test := onlineFixture(t, 33)
	cfg := OnlineConfig{Window: 24, RecentWindow: 8, Reservoir: true, Seed: 5}
	var ls [2]*OnlineLearner
	for i := range ls {
		l, err := NewOnlineLearner(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Overfill so reservoir replacement (the sampler-driven path) is active.
		for i := 0; i < 3*24; i++ {
			if _, err := l.Observe(test.X[i%len(test.X)], test.Y[i%len(test.Y)]); err != nil {
				t.Fatal(err)
			}
		}
		ls[i] = l
	}
	twin := ls[1]
	restored, err := NewOnlineLearnerFromState(m, cfg, ls[0].Export())
	if err != nil {
		t.Fatal(err)
	}
	feedStream(t, twin, test.X[:40], test.Y[:40])
	feedStream(t, restored, test.X[:40], test.Y[:40])
	if !reflect.DeepEqual(peekState(t, restored), peekState(t, twin)) {
		t.Fatal("reservoir learners diverged after restore; sampler state did not carry over")
	}
}

// TestOnlineLearnerRestoreRejectsMismatch proves a snapshot that does not
// match the restore-time geometry is rejected instead of silently
// truncated.
func TestOnlineLearnerRestoreRejectsMismatch(t *testing.T) {
	m, _, test := onlineFixture(t, 35)
	cfg := OnlineConfig{Window: 32, RecentWindow: 8}
	l, err := NewOnlineLearner(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedStream(t, l, test.X[:16], test.Y[:16])
	st := l.Export()
	if _, err := NewOnlineLearnerFromState(m, cfg, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := NewOnlineLearnerFromState(m, OnlineConfig{Window: 64, RecentWindow: 8}, st); err == nil {
		t.Fatal("snapshot restored under a different Window")
	}
	if _, err := NewOnlineLearnerFromState(m, OnlineConfig{Window: 32, RecentWindow: 16}, st); err == nil {
		t.Fatal("snapshot restored under a different RecentWindow")
	}
	bad := *st
	bad.WinPos = cfg.Window
	if _, err := NewOnlineLearnerFromState(m, cfg, &bad); err == nil {
		t.Fatal("out-of-range window cursor accepted")
	}
	bad = *st
	bad.ClsRecentN = bad.ClsRecentN[:1]
	if _, err := NewOnlineLearnerFromState(m, cfg, &bad); err == nil {
		t.Fatal("truncated class tallies accepted")
	}
	// A rejected state is left as it was, so it still restores.
	if _, err := NewOnlineLearnerFromState(m, cfg, st); err != nil {
		t.Fatalf("state refused after the rejected restores: %v", err)
	}
}
