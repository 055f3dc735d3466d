package registry

import (
	"errors"
	"reflect"
	"runtime"
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

// twinSnapshot feeds a learner that never parks the stream
// feedTenant(fx, n) sends and returns its gauges — what a parked tenant's
// learner must report.
func twinSnapshot(t *testing.T, fx *tenantFixture, spec Spec, n int) serve.LearnerSnapshot {
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
	return l.Snapshot()
}

// tenantLearner returns the learner attached to tenant id, waking it if
// parked.
func tenantLearner(t *testing.T, reg *Registry, id string) *serve.Learner {
	t.Helper()
	h, err := reg.Acquire(id)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", id, err)
	}
	defer reg.Release(h)
	return h.Server().Learner()
}

// TestRegistryParkWakeLearnerContinuity is the park/wake acceptance
// shape: park a learning tenant and its parked row reports exactly the
// gauges of a twin learner that never parked — window, drift baseline,
// counters; wake it and it serves with the very learner it parked with,
// which keeps counting from where it stopped.
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
	l := tenantLearner(t, reg, a.name)
	want := twinSnapshot(t, a, spec, 16)

	// Waking b through the 1-slot pool parks a.
	checkTenant(t, reg, b.name, b)
	row, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Resident {
		t.Fatalf("tenant %q still resident; the test parked nothing", a.name)
	}
	if row.Serve.Learner == nil {
		t.Fatal("parked learning tenant reports no learner gauges")
	}
	if !reflect.DeepEqual(*row.Serve.Learner, want) {
		t.Fatalf("parked learner gauges differ from a twin that never parked:\n got %+v\nwant %+v", *row.Serve.Learner, want)
	}

	// Wake a: the learner it parked with serves again.
	if got := tenantLearner(t, reg, a.name); got != l {
		t.Fatal("woken tenant serves another learner than the one it parked with")
	}
	row, err = reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Serve.Learner == nil || row.Serve.Learner.Feedback != 16 {
		t.Fatalf("resident serve snapshot lost the learner gauges: %+v", row.Serve)
	}
	// Park it again, wake it with more feedback: it keeps counting.
	checkTenant(t, reg, b.name, b)
	feedTenant(t, reg, a.name, a, 4)
	if got := l.Snapshot().Feedback; got != want.Feedback+4 {
		t.Fatalf("observations after wake+4 = %d, want %d (reset to cold?)", got, want.Feedback+4)
	}
}

// TestRegistryParkMidRetrainKeepsSuccessor parks a tenant while its
// background retrain is in flight: the park does not wait for it, the
// retrain publishes into the parked tenant's Swapper, and the woken tenant
// serves the gate-accepted successor. Run under -race this also proves
// park and the retrain goroutine are properly synchronized.
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
	l := tenantLearner(t, reg, a.name)
	if started, err := l.Retrain(true); err != nil || !started { // forced: always publishes
		t.Fatalf("forced retrain: started=%v err=%v", started, err)
	}
	// Evict a at once, the retrain likely still running; the park does
	// not wait for it.
	checkTenant(t, reg, b.name, b)
	l.Wait()
	row, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Resident {
		t.Fatalf("tenant %q still resident; nothing was parked mid-retrain", a.name)
	}
	if lr := row.Serve.Learner; lr == nil || lr.Retrains != 1 || lr.GateAccepts != 1 || lr.Retraining {
		t.Fatalf("parked gauges after the retrain settled: %+v, want 1 retrain, 1 gate accept, none in flight", lr)
	}
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(h)
	if h.Server().Batcher().Model() == a.m {
		t.Fatal("woken tenant serves the pre-retrain model; the successor was lost in the park")
	}
	if h.Server().Learner() != l {
		t.Fatal("woken tenant serves another learner than the one that retrained")
	}
}

// TestRegistryEvictionNeverWaitsOnRetrain pins that no registry method
// waits on a retrain while holding the registry lock: a wake parks the
// least-recently-used tenant although it is mid-retrain and returns with
// the retrain still running, and a Remove of that tenant, which does wait
// the retrain out, lets an Acquire of another tenant return first. A
// Close meanwhile still returns only after that retrain.
func TestRegistryEvictionNeverWaitsOnRetrain(t *testing.T) {
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
	l := tenantLearner(t, reg, a.name)
	if started, err := l.Retrain(true); err != nil || !started {
		t.Fatalf("forced retrain: started=%v err=%v", started, err)
	}
	checkTenant(t, reg, b.name, b) // b is now more recently used than a
	h, err := reg.Acquire(c.name)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(h)
	row, err := reg.TenantStats(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if row.Resident {
		t.Fatalf("wake of %q did not park the least-recently-used tenant %q", c.name, a.name)
	}
	if lr := row.Serve.Learner; lr == nil || !lr.Retraining {
		t.Fatalf("the wake of %q waited for %q's retrain to finish", c.name, a.name)
	}

	// Remove a mid-retrain; once it is unregistered, Acquire b from a
	// second goroutine.
	removed := make(chan error, 1)
	go func() { removed <- reg.Remove(a.name) }()
	for {
		if _, err := reg.TenantStats(a.name); errors.Is(err, ErrUnknownTenant) {
			break
		}
		runtime.Gosched()
	}
	acquired := make(chan error, 1)
	go func() {
		h, err := reg.Acquire(b.name)
		if err == nil {
			reg.Release(h)
		}
		acquired <- err
	}()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case err := <-removed:
		t.Fatalf("Remove (err %v) returned before a concurrent Acquire of another tenant", err)
	}
	if !l.Snapshot().Retraining {
		t.Fatalf("Acquire of %q returned only after %q's retrain finished", b.name, a.name)
	}
	// Close, too, waits for the retrain of the tenant Remove dropped.
	reg.Close()
	if l.Snapshot().Retraining {
		t.Fatal("Close returned with a removed tenant's retrain still running")
	}
	if err := <-removed; err != nil {
		t.Fatal(err)
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
	lr := row.Serve.Learner
	if lr == nil {
		t.Fatal("closed registry lost the parked learner snapshot")
	}
	if lr.Retraining {
		t.Fatal("Close returned with the retrain goroutine still running")
	}
	if lr.Retrains != 1 {
		t.Fatalf("retrains after Close = %d, want 1 (successor dropped on shutdown)", lr.Retrains)
	}
}
