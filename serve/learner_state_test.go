package serve

import (
	"reflect"
	"testing"

	disthd "repro"
)

// cloneOnline deep-copies st, so a test can hold a state whose buffers
// have moved into a learner since.
func cloneOnline(st *disthd.LearnerState) *disthd.LearnerState {
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

// TestLearnerExportRestoreContinuity pins the serve-level half of the
// park/wake contract: Export settles the learner and moves everything out,
// and RestoreLearner rebuilds a learner that reports the frozen gauges
// exactly and hands the same state back — online state bitwise, gate and
// retrain gauges included — and keeps counting from there.
func TestLearnerExportRestoreContinuity(t *testing.T) {
	opts := LearnerOptions{Window: 64, RecentWindow: 8, Seed: 3}
	b, l, st := learnerFixture(t, opts)
	for i, x := range st.test.X[:32] {
		if _, err := l.Feed(x, st.test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A forced retrain publishes a successor and populates the gate gauges;
	// Export must wait it out, so no explicit Wait here.
	if started, err := l.Retrain(true); err != nil || !started {
		t.Fatalf("forced retrain: started=%v err=%v", started, err)
	}
	snap := l.Export()
	if snap.Gauges.Retraining {
		t.Fatal("Export returned with a retrain still in flight")
	}
	if snap.Gauges.Retrains != 1 || snap.Gauges.GateAccepts != 1 {
		t.Fatalf("exported gauges retrains=%d gateAccepts=%d, want 1/1 after a forced retrain",
			snap.Gauges.Retrains, snap.Gauges.GateAccepts)
	}
	if b.Model() == st.a {
		t.Fatal("forced retrain never published; the export has nothing to preserve")
	}
	if _, err := l.Feed(st.test.X[0], st.test.Y[0]); err == nil {
		t.Fatal("a spent learner accepted feedback")
	}
	want := *snap
	want.Online = cloneOnline(snap.Online)

	restored, err := RestoreLearner(b.Swapper(), opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), want.Gauges) {
		t.Fatalf("restored snapshot diverges:\n got %+v\nwant %+v", restored.Snapshot(), want.Gauges)
	}
	if _, err := RestoreLearner(b.Swapper(), opts, snap); err == nil {
		t.Fatal("a state restored twice")
	}
	again := restored.Export()
	if !reflect.DeepEqual(again, &want) {
		t.Fatal("restored learner's Export differs from the state it was built from")
	}
	// The learner keeps working: more feedback continues the counters
	// instead of restarting them.
	if restored, err = RestoreLearner(b.Swapper(), opts, again); err != nil {
		t.Fatal(err)
	}
	for i, x := range st.test.X[:8] {
		if _, err := restored.Feed(x, st.test.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := restored.Snapshot().Feedback; got != want.Gauges.Feedback+8 {
		t.Fatalf("feedback after restore+8 = %d, want %d", got, want.Gauges.Feedback+8)
	}
}

// TestRestoreLearnerValidates proves the restore rejects nil inputs and a
// snapshot whose geometry does not match the options.
func TestRestoreLearnerValidates(t *testing.T) {
	b, l, st := learnerFixture(t, LearnerOptions{Window: 32, RecentWindow: 8})
	if _, err := l.Feed(st.test.X[0], st.test.Y[0]); err != nil {
		t.Fatal(err)
	}
	snap := l.Export()
	if _, err := RestoreLearner(nil, LearnerOptions{}, snap); err == nil {
		t.Fatal("nil swapper accepted")
	}
	if _, err := RestoreLearner(b.Swapper(), LearnerOptions{}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := RestoreLearner(b.Swapper(), LearnerOptions{Window: 16, RecentWindow: 8}, snap); err == nil {
		t.Fatal("snapshot restored under mismatched options")
	}
}
