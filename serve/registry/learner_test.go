package registry

import (
	"reflect"
	"testing"

	"repro/serve"
)

// learnerSpec is the quick tenant spec with a learner attached: a small
// window so fixture-sized streams can fill it and force retrains.
func learnerSpec(seed uint64) Spec {
	return Spec{
		Options: quickOpts(),
		Learner: &serve.LearnerOptions{Window: 64, RecentWindow: 8, Seed: seed},
	}
}

// feedTenant acquires id and feeds n labeled samples through its learner
// (the fixture's own predictions as labels, so outcomes are deterministic).
func feedTenant(t *testing.T, reg *Registry, id string, fx *tenantFixture, n int) {
	t.Helper()
	h, err := reg.Acquire(id)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", id, err)
	}
	defer reg.Release(h)
	for i := 0; i < n; i++ {
		j := i % len(fx.rows)
		if _, err := h.Server().Learner().Feed(fx.rows[j], fx.want[j]); err != nil {
			t.Fatalf("tenant %q Feed: %v", id, err)
		}
	}
}

// twinState feeds a learner that never parks the stream feedTenant(fx, n)
// sends and moves its state out — the reference a parked tenant's state
// must equal bit for bit.
func twinState(t *testing.T, fx *tenantFixture, spec Spec, n int) *serve.LearnerState {
	t.Helper()
	sw, err := serve.NewSwapper(fx.m)
	if err != nil {
		t.Fatal(err)
	}
	l, err := serve.NewLearner(sw, *spec.Learner)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j := i % len(fx.rows)
		if _, err := l.Feed(fx.rows[j], fx.want[j]); err != nil {
			t.Fatal(err)
		}
	}
	return l.Export()
}

// parkedState returns the learner state the registry holds for a parked
// tenant.
func parkedState(reg *Registry, id string) *serve.LearnerState {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.tenants[id].learner
}

// TestRegistryParkWakeLearnerContinuity is the park/wake acceptance
// shape: park a learning tenant and its learner state is bit-identical
// to a twin learner that never parked — window contents, drift baseline,
// counters — with the parked /stats row reporting the frozen gauges; wake
// it and park it again, and the state is still that twin's, so the woken
// learner continued rather than restarted.
func TestRegistryParkWakeLearnerContinuity(t *testing.T) {
	fx := fixtures(t)
	a, b := fx[0], fx[1]
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	spec := learnerSpec(7)
	if err := reg.Install(a.name, a.m, spec); err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(b.name, b.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	feedTenant(t, reg, a.name, a, 16)
	want := twinState(t, a, spec, 16)

	// Waking b through the 1-slot pool parks a.
	checkTenant(t, reg, b.name, b)
	row, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Resident {
		t.Fatalf("tenant %q still resident; the test parked nothing", a.name)
	}
	if row.Learner == nil {
		t.Fatal("parked learning tenant reports no learner gauges")
	}
	if row.Learner.Feedback != 16 || row.Learner.WindowLen != 16 {
		t.Fatalf("parked gauges feedback=%d windowLen=%d, want 16/16",
			row.Learner.Feedback, row.Learner.WindowLen)
	}
	if got := parkedState(reg, a.name); !reflect.DeepEqual(got, want) {
		t.Fatalf("parked learner state differs from a twin that never parked:\n got %+v\nwant %+v", got, want)
	}

	// Wake a: the learner must continue, not restart.
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(h)
	row, err = reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Learner != nil {
		t.Fatal("resident tenant still reports the frozen parked gauges")
	}
	if row.Serve == nil || row.Serve.Learner == nil || row.Serve.Learner.Feedback != 16 {
		t.Fatalf("resident serve snapshot lost the learner gauges: %+v", row.Serve)
	}
	// Park it again: the woken learner held exactly the state it was given.
	checkTenant(t, reg, b.name, b)
	if got := parkedState(reg, a.name); !reflect.DeepEqual(got, want) {
		t.Fatalf("learner state not bitwise-preserved across wake and park:\n got %+v\nwant %+v", got, want)
	}
	// And it keeps counting from where it stopped.
	feedTenant(t, reg, a.name, a, 4)
	h, err = reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	got := h.Server().Learner().Snapshot().Feedback
	reg.Release(h)
	if want := want.Online.Observations + 4; got != want {
		t.Fatalf("observations after wake+4 = %d, want %d (reset to cold?)", got, want)
	}
}

// TestRegistryParkMidRetrainKeepsSuccessor parks a tenant while its
// background retrain is in flight: park must settle the retrain, and the
// gate-accepted successor must be the model the tenant serves after the
// next wake — never lost into the dead serving unit. Run under -race this
// also proves park and the retrain goroutine are properly synchronized.
func TestRegistryParkMidRetrainKeepsSuccessor(t *testing.T) {
	fx := fixtures(t)
	a, b := fx[0], fx[1]
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(a.name, a.m, learnerSpec(11)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(b.name, b.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	feedTenant(t, reg, a.name, a, 16)
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	started, err := h.Server().Learner().Retrain(true) // forced: always publishes
	reg.Release(h)
	if err != nil || !started {
		t.Fatalf("forced retrain: started=%v err=%v", started, err)
	}
	// Evict a immediately — the retrain may still be running; park must
	// wait it out and capture its successor.
	checkTenant(t, reg, b.name, b)
	row, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Resident {
		t.Fatalf("tenant %q still resident; nothing was parked mid-retrain", a.name)
	}
	if row.Learner == nil || row.Learner.Retrains != 1 || row.Learner.GateAccepts != 1 {
		t.Fatalf("parked gauges lost the settled retrain: %+v", row.Learner)
	}
	if row.Learner.Retraining {
		t.Fatal("parked snapshot claims a retrain is still in flight")
	}
	h, err = reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(h)
	if h.Server().Batcher().Model() == a.m {
		t.Fatal("woken tenant serves the pre-retrain model; the successor was lost in the park")
	}
	if snap := h.Server().Learner().Snapshot(); snap.Retrains != 1 {
		t.Fatalf("woken learner retrains = %d, want 1", snap.Retrains)
	}
}

// TestRegistryEvictionSkipsRetrainingTenant pins the eviction order
// around an in-flight retrain: with a learning tenant mid-retrain and a
// plain tenant idle, a wake parks the plain tenant even though the
// learning one is colder, so the wake returns without waiting out the
// retrain under the registry lock.
func TestRegistryEvictionSkipsRetrainingTenant(t *testing.T) {
	fx := fixtures(t)
	a, b, c := fx[2], fx[1], fx[0]
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// c first, so installing b parks it (every lastUse is still 0): a and
	// b resident, c parked.
	spec := learnerSpec(17)
	spec.Learner.Iterations = 500 // ~50 ms, over 100 times what the wake takes
	for _, in := range []struct {
		f    *tenantFixture
		spec Spec
	}{{c, Spec{Options: quickOpts()}}, {a, spec}, {b, Spec{Options: quickOpts()}}} {
		if err := reg.Install(in.f.name, in.f.m, in.spec); err != nil {
			t.Fatal(err)
		}
	}
	feedTenant(t, reg, a.name, a, 16)
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	started, err := h.Server().Learner().Retrain(true)
	reg.Release(h)
	if err != nil || !started {
		t.Fatalf("forced retrain: started=%v err=%v", started, err)
	}
	checkTenant(t, reg, b.name, b) // b is now more recently used than a
	h, err = reg.Acquire(c.name)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(h)
	rowA, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	rowB, err := reg.TenantStats(b.name)
	if err != nil {
		t.Fatal(err)
	}
	if !rowA.Resident || rowB.Resident {
		t.Fatalf("wake of %q parked the wrong tenant: %q resident=%v, %q resident=%v",
			c.name, a.name, rowA.Resident, b.name, rowB.Resident)
	}
	if rowA.Serve == nil || rowA.Serve.Learner == nil || !rowA.Serve.Learner.Retraining {
		t.Fatalf("the wake waited for %q's retrain to finish", a.name)
	}
}

// TestRegistryLearnerChurnContinuity is the eviction-churn soak with a
// learner on every tenant: labeled traffic through a 1-slot pool, every
// round forcing park/wake cycles, with each tenant's observation counters
// exactly continuous — previous value plus what this round fed — and the
// drift counters monotone.
func TestRegistryLearnerChurnContinuity(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for i, f := range fx {
		if err := reg.Install(f.name, f.m, learnerSpec(uint64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	const rounds, perRound = 4, 8
	prevObs := make(map[string]uint64)
	prevDrifts := make(map[string]uint64)
	for round := 0; round < rounds; round++ {
		for _, f := range fx {
			feedTenant(t, reg, f.name, f, perRound)
			h, err := reg.Acquire(f.name)
			if err != nil {
				t.Fatal(err)
			}
			st := h.Server().Learner().Snapshot()
			reg.Release(h)
			if want := prevObs[f.name] + perRound; st.Feedback != want {
				t.Fatalf("round %d tenant %q: observations %d, want %d (window reset across wake?)",
					round, f.name, st.Feedback, want)
			}
			if st.DriftEvents < prevDrifts[f.name] {
				t.Fatalf("round %d tenant %q: drift counter went backwards (%d -> %d)",
					round, f.name, prevDrifts[f.name], st.DriftEvents)
			}
			prevObs[f.name] = st.Feedback
			prevDrifts[f.name] = st.DriftEvents
		}
	}
	st := reg.Stats()
	if st.Evictions == 0 || st.Wakes == 0 {
		t.Fatalf("churn produced %d evictions / %d wakes; the pool never cycled", st.Evictions, st.Wakes)
	}
}

// TestRegistryCloseSettlesLearner proves Close waits out a background
// retrain: after Close returns, the retrain goroutine has finished and
// its outcome is accounted in the tenant's parked learner snapshot.
func TestRegistryCloseSettlesLearner(t *testing.T) {
	fx := fixtures(t)
	a := fx[0]
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(a.name, a.m, learnerSpec(13)); err != nil {
		t.Fatal(err)
	}
	feedTenant(t, reg, a.name, a, 16)
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	started, err := h.Server().Learner().Retrain(true)
	reg.Release(h)
	if err != nil || !started {
		t.Fatalf("forced retrain: started=%v err=%v", started, err)
	}
	reg.Close()
	// TenantStats keeps answering after Close (the registration is kept in
	// memory); the settled retrain must be in the frozen gauges.
	row, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Learner == nil {
		t.Fatal("closed registry lost the parked learner snapshot")
	}
	if row.Learner.Retraining {
		t.Fatal("Close returned with the retrain goroutine still running")
	}
	if row.Learner.Retrains != 1 {
		t.Fatalf("retrains after Close = %d, want 1 (successor dropped on shutdown)", row.Learner.Retrains)
	}
}
