package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	disthd "repro"
	"repro/serve"
)

// tenantFixture is one trained tenant model with verification data: rows
// with the answers the model itself gives, so any test can prove a
// registry-routed prediction went through the right tenant's scratch.
type tenantFixture struct {
	name string
	m    *disthd.Model
	rows [][]float64
	want []int
}

var (
	fixOnce sync.Once
	fixSet  []*tenantFixture
)

// fixtures trains three deliberately heterogeneous tenants — different
// feature widths, dimensionalities, and class counts — once per test
// binary. Heterogeneity is the point: cross-tenant scratch aliasing
// cannot go unnoticed when every tenant disagrees on every shape axis.
func fixtures(t testing.TB) []*tenantFixture {
	t.Helper()
	fixOnce.Do(func() {
		specs := []struct {
			name, demo string
			scale      float64
			dim        int
			seed       uint64
		}{
			{"diabetes", "DIABETES", 0.05, 64, 7},
			{"ucihar", "UCIHAR", 0.05, 96, 11},
			{"isolet", "ISOLET", 0.05, 128, 13},
		}
		for _, sp := range specs {
			train, test, err := disthd.SyntheticBenchmark(sp.demo, sp.scale, sp.seed)
			if err != nil {
				panic(err)
			}
			cfg := disthd.DefaultConfig()
			cfg.Dim = sp.dim
			cfg.Iterations = 2
			cfg.Seed = sp.seed
			m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
			if err != nil {
				panic(err)
			}
			rows := test.X
			if len(rows) > 16 {
				rows = rows[:16]
			}
			want := make([]int, len(rows))
			rep, err := m.NewReplica(len(rows))
			if err != nil {
				panic(err)
			}
			if _, err := rep.PredictBatch(m, rows, want); err != nil {
				panic(err)
			}
			fixSet = append(fixSet, &tenantFixture{name: sp.name, m: m, rows: rows, want: want})
		}
	})
	return fixSet
}

// quickOpts keeps test batchers tiny and prompt.
func quickOpts() serve.Options {
	return serve.Options{MaxBatch: 16, Replicas: 1}
}

// checkTenant acquires id and verifies the fixture's predictions route to
// the fixture's model.
func checkTenant(t *testing.T, reg *Registry, id string, fx *tenantFixture) {
	t.Helper()
	h, err := reg.Acquire(id)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", id, err)
	}
	defer reg.Release(h)
	got, err := h.Server().Batcher().PredictBatch(fx.rows)
	if err != nil {
		t.Fatalf("tenant %q PredictBatch: %v", id, err)
	}
	for i := range got {
		if got[i] != fx.want[i] {
			t.Fatalf("tenant %q row %d: predicted %d, model says %d", id, i, got[i], fx.want[i])
		}
	}
}

// TestRegistryServesHeterogeneousTenants is the core acceptance shape:
// three tenants with different (features, D, classes) in one registry,
// every prediction verified against the owning model.
func TestRegistryServesHeterogeneousTenants(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(len(fx))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, f := range fx {
		if err := reg.Install(f.name, f.m, Spec{Options: quickOpts()}); err != nil {
			t.Fatalf("Install(%q): %v", f.name, err)
		}
	}
	for _, f := range fx {
		checkTenant(t, reg, f.name, f)
	}
	st := reg.Stats()
	if st.TenantCount != 3 || st.ResidentCount != 3 || st.UsedReplicas != 3 {
		t.Fatalf("stats = %+v, want 3 tenants resident with 3 used replicas", st)
	}
	if st.DefaultTenant != fx[0].name {
		t.Fatalf("default tenant %q, want first-installed %q", st.DefaultTenant, fx[0].name)
	}
	// The default alias: Acquire("") routes to the first-installed tenant.
	checkTenant(t, reg, "", fx[0])
}

// TestRegistryLRUEviction proves the pool parks the least-recently-used
// idle tenant — never one with an in-flight request — and that a parked
// tenant serves again (correctly) on its next hit.
func TestRegistryLRUEviction(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	a, b, c := fx[0], fx[1], fx[2]
	for _, f := range []*tenantFixture{a, b} {
		if err := reg.Install(f.name, f.m, Spec{Options: quickOpts()}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch b so a is the LRU resident.
	checkTenant(t, reg, a.name, a)
	checkTenant(t, reg, b.name, b)
	ha, _ := reg.Acquire(a.name)
	reg.Release(ha)
	hb, err := reg.Acquire(b.name)
	if err != nil {
		t.Fatal(err)
	}
	// Installing c with a full pool must park a (LRU idle) — not b, which
	// is pinned by the in-flight acquire.
	if err := reg.Install(c.name, c.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatalf("Install(%q) into a full pool: %v", c.name, err)
	}
	reg.Release(hb)
	st := reg.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	for _, row := range st.PerTenant {
		switch row.ID {
		case a.name:
			if row.Resident {
				t.Fatalf("tenant %q still resident, want parked (LRU)", a.name)
			}
		case b.name, c.name:
			if !row.Resident {
				t.Fatalf("tenant %q parked, want resident", row.ID)
			}
		}
	}
	// The parked tenant wakes on its next hit and still answers with its
	// own model; that wake must evict the new LRU, not the just-used c.
	checkTenant(t, reg, c.name, c)
	checkTenant(t, reg, a.name, a)
	st = reg.Stats()
	if st.Wakes != 1 {
		t.Fatalf("re-wakes = %d, want 1", st.Wakes)
	}
	for _, row := range st.PerTenant {
		if row.ID == b.name && row.Resident {
			t.Fatalf("wake of %q should have parked LRU tenant %q", a.name, b.name)
		}
	}
}

// TestRegistryAdmissionControl proves a wake fails with ErrPoolExhausted
// only while every pooled replica is pinned by an in-flight request, and
// succeeds as soon as one drains.
func TestRegistryAdmissionControl(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	a, b := fx[0], fx[1]
	if err := reg.Install(a.name, a.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	// Pin a's replica first: with the whole pool in flight, b cannot be
	// made resident at install — it must still install fine, parked.
	ha, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(b.name, b.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatalf("Install of a parked tenant: %v", err)
	}
	if _, err := reg.Acquire(b.name); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("Acquire(%q) under a pinned pool: err = %v, want ErrPoolExhausted", b.name, err)
	}
	// Invalid options fail the install even when the tenant would park.
	bad := quickOpts()
	bad.MaxBatch = -1
	if err := reg.Install("bad", a.m, Spec{Options: bad}); err == nil {
		t.Error("Install with a negative MaxBatch into a pinned pool: no error")
	}
	if _, err := reg.TenantStats("bad"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("a refused install is registered: err = %v", err)
	}
	reg.Release(ha)
	// With a idle again it is evictable, so b admits.
	checkTenant(t, reg, b.name, b)
	st := reg.Stats()
	if st.AdmissionRejections != 1 {
		t.Fatalf("admission rejections = %d, want 1", st.AdmissionRejections)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (a parked to admit b)", st.Evictions)
	}
	// An install that can never fit is rejected up front, not at runtime.
	big := quickOpts()
	big.Replicas = 2
	if err := reg.Install("big", a.m, Spec{Options: big}); err == nil {
		t.Fatal("Install wanting more replicas than the pool holds: no error")
	}
}

// TestRegistryRemoveDrains proves DELETE semantics: Remove blocks until
// in-flight requests release, new requests see ErrUnknownTenant, and the
// default re-elects.
func TestRegistryRemoveDrains(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	a, b := fx[0], fx[1]
	for _, f := range []*tenantFixture{a, b} {
		if err := reg.Install(f.name, f.m, Spec{Options: quickOpts()}); err != nil {
			t.Fatal(err)
		}
	}
	ha, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	removed := make(chan error, 1)
	go func() { removed <- reg.Remove(a.name) }()
	select {
	case err := <-removed:
		t.Fatalf("Remove returned %v with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	reg.Release(ha)
	if err := <-removed; err != nil {
		t.Fatalf("Remove after release: %v", err)
	}
	if _, err := reg.Acquire(a.name); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Acquire of a removed tenant: err = %v, want ErrUnknownTenant", err)
	}
	if got := reg.Default(); got != b.name {
		t.Fatalf("default after removing it = %q, want re-elected %q", got, b.name)
	}
}

// TestRegistryConcurrentReplaceKeepsOneTenant pins that two replacing
// Installs of one ID, both draining the same busy tenant, leave one
// registration: one row, one tenant's replicas in the pool, and nothing
// once it is removed.
func TestRegistryConcurrentReplaceKeepsOneTenant(t *testing.T) {
	a := fixtures(t)[0]
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install("x", a.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	installed := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { installed <- reg.Install("x", a.m, Spec{Options: quickOpts()}) }()
	}
	waitDraining(t, 2)
	reg.Release(h)
	for i := 0; i < 2; i++ {
		if err := <-installed; err != nil {
			t.Fatal(err)
		}
	}
	if st := reg.Stats(); st.TenantCount != 1 || st.UsedReplicas != 1 {
		t.Fatalf("after two replacing Installs: %d tenants, %d replicas in use, want 1 and 1", st.TenantCount, st.UsedReplicas)
	}
	checkTenant(t, reg, "x", a)
	if err := reg.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats(); st.TenantCount != 0 || st.UsedReplicas != 0 {
		t.Fatalf("after Remove: %d tenants, %d replicas in use, want none", st.TenantCount, st.UsedReplicas)
	}
}

// waitDraining blocks until n goroutines wait in drainLocked for a busy
// tenant to go idle.
func waitDraining(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		k := runtime.Stack(buf, true)
		if bytes.Count(buf[:k], []byte("(*Registry).drainLocked")) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines never waited in drainLocked", n)
		}
	}
}

// TestRegistryReplaceKeepsDefault pins that replacing the default tenant
// keeps it the default, through the Go API and over PUT /t/{default}: the
// root alias keeps answering from the tenant it named, never from another
// model of another feature width.
func TestRegistryReplaceKeepsDefault(t *testing.T) {
	fx := fixtures(t)
	a, b := fx[0], fx[1]
	reg, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, f := range []*tenantFixture{a, b} {
		if err := reg.Install(f.name, f.m, Spec{Options: quickOpts()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Install(a.name, a.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Default(); got != a.name {
		t.Fatalf("default after replacing it = %q, want %q", got, a.name)
	}

	h := NewServer(reg).Handler()
	var snapshot bytes.Buffer
	if err := a.m.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("PUT", "/t/"+a.name+"?max_batch=16", &snapshot)
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT /t/%s: %d (%s)", a.name, rec.Code, rec.Body)
	}
	body, _ := json.Marshal(map[string]any{"x": a.rows})
	req = httptest.NewRequest("POST", "/predict_batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("root /predict_batch after PUT /t/%s: %d (%s)", a.name, rec.Code, rec.Body)
	}
	var pb struct {
		Classes []int `json:"classes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pb); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pb.Classes, a.want) {
		t.Fatalf("root alias answered %v, the replaced default's model says %v", pb.Classes, a.want)
	}
}

// TestRegistryServeStateSurvivesPark pins that a tenant's serving unit
// lasts its registration: the serving counters and quantization gauges of
// a parked tenant are in its stats row, and the wake serves from the same
// Server, whose counters carry on.
func TestRegistryServeStateSurvivesPark(t *testing.T) {
	fx := fixtures(t)
	a, b := fx[0], fx[1]
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, f := range []*tenantFixture{a, b} {
		if err := reg.Install(f.name, f.m, Spec{Options: quickOpts()}); err != nil {
			t.Fatal(err)
		}
	}
	checkTenant(t, reg, a.name, a)
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	srv := h.Server()
	reg.Release(h)
	rec := httptest.NewRecorder()
	NewServer(reg).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/t/"+a.name+"/quantize?force=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("forced /quantize: %d (%s)", rec.Code, rec.Body)
	}

	checkTenant(t, reg, b.name, b) // parks a through the one-slot pool
	rows := uint64(len(a.rows))
	check := func(when string, batchRows uint64) {
		t.Helper()
		row, err := reg.TenantStats(a.name)
		if err != nil {
			t.Fatal(err)
		}
		if row.Serve == nil {
			t.Fatalf("%s: tenant %q reports no serving snapshot", when, a.name)
		}
		if q := row.Serve.Quantization; row.Serve.BatchRequests != batchRows || q == nil || !q.Active || q.Publishes != 1 {
			t.Fatalf("%s: batch_requests %d, quantization %+v; want %d rows and 1 active publish",
				when, row.Serve.BatchRequests, q, batchRows)
		}
	}
	if row, err := reg.TenantStats(a.name); err != nil || row.Resident {
		t.Fatalf("tenant %q resident=%v (err %v); the test parked nothing", a.name, row.Resident, err)
	}
	check("parked", rows)

	h, err = reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if h.Server() != srv {
		reg.Release(h)
		t.Fatal("the wake serves another Server than the one the tenant parked with")
	}
	_, err = h.Server().Batcher().PredictBatch(a.rows)
	reg.Release(h)
	if err != nil {
		t.Fatal(err)
	}
	check("woken", 2*rows)
}

// TestRegistrySwapSurvivesEviction proves park/wake keeps the latest
// published model: a hot-swap while resident must still serve after the
// tenant is parked and woken — the eviction releases scratch, not state —
// and the woken tenant still counts that swap.
func TestRegistrySwapSurvivesEviction(t *testing.T) {
	fx := fixtures(t)
	a, b := fx[0], fx[1]
	// A same-shape successor for a: retrain with another seed.
	train, _, err := disthd.SyntheticBenchmark("DIABETES", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := disthd.DefaultConfig()
	cfg.Dim = a.m.Dim()
	cfg.Iterations = 2
	cfg.Seed = 99
	successor, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(a.name, a.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(b.name, b.m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Server().Batcher().Swap(successor); err != nil {
		t.Fatal(err)
	}
	reg.Release(h)
	// Force a's eviction by waking b, then wake a again.
	checkTenant(t, reg, b.name, b)
	h, err = reg.Acquire(a.name)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(h)
	if got := h.Server().Batcher().Model(); got != successor {
		t.Fatalf("woken tenant serves the pre-swap model; the park lost the published successor")
	}
	if got := h.Server().Stats().Swaps; got != 1 {
		t.Fatalf("woken tenant reports %d swaps, want 1", got)
	}
}

// TestRegistryChurnRace is the churn soak the issue demands: goroutines
// hammer predict/swap/install/delete across overlapping tenants on a pool
// small enough to evict constantly, under -race. Every prediction must
// come back correct for its tenant's model (shape heterogeneity turns any
// cross-tenant scratch aliasing into a wrong answer or an error), and the
// only admissible failure is ErrPoolExhausted — which callers retry, so
// zero requests are dropped.
func TestRegistryChurnRace(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(2) // 3 durable tenants + churners through 2 slots
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, f := range fx {
		if err := reg.Install(f.name, f.m, Spec{Options: quickOpts()}); err != nil {
			t.Fatal(err)
		}
	}
	const (
		workers = 8
		iters   = 120
	)
	var (
		rejected atomic.Uint64
		served   atomic.Uint64
		wg       sync.WaitGroup
	)
	predictOnce := func(id string, f *tenantFixture) error {
		h, err := reg.Acquire(id)
		if err != nil {
			return err
		}
		defer reg.Release(h)
		got, err := h.Server().Batcher().PredictBatch(f.rows)
		if err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
		for i := range got {
			if got[i] != f.want[i] {
				return fmt.Errorf("tenant %s row %d: got %d want %d (scratch aliasing?)", id, i, got[i], f.want[i])
			}
		}
		return nil
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			own := fmt.Sprintf("churn-%d", w)
			for i := 0; i < iters; i++ {
				f := fx[rng.Intn(len(fx))]
				switch rng.Intn(10) {
				case 0: // install/replace a private tenant
					if err := reg.Install(own, f.m, Spec{Options: quickOpts()}); err != nil {
						errs <- err
						return
					}
				case 1: // remove it again (absent is fine)
					if err := reg.Remove(own); err != nil && !errors.Is(err, ErrUnknownTenant) {
						errs <- err
						return
					}
				case 2: // self-swap: exercises the swap path without changing answers
					h, err := reg.Acquire(f.name)
					if errors.Is(err, ErrPoolExhausted) {
						rejected.Add(1)
						continue
					}
					if err != nil {
						errs <- err
						return
					}
					err = h.Server().Batcher().Swap(f.m)
					reg.Release(h)
					if err != nil {
						errs <- err
						return
					}
				default: // predict, retrying admission rejections: no request drops
					for {
						err := predictOnce(f.name, f)
						if err == nil {
							served.Add(1)
							break
						}
						if errors.Is(err, ErrPoolExhausted) {
							rejected.Add(1)
							continue
						}
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn over a 2-slot pool produced no evictions; the test exercised nothing")
	}
	t.Logf("churn: %d verified predictions, %d admission rejections retried, %d evictions, %d wakes",
		served.Load(), rejected.Load(), st.Evictions, st.Wakes)
}

// TestRegistryCloseDrains proves shutdown answers in-flight work before
// closing and 503s (ErrClosed) afterwards.
func TestRegistryCloseDrains(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Install(fx[0].name, fx[0].m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	h, err := reg.Acquire(fx[0].name)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { reg.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a request in flight")
	case <-time.After(20 * time.Millisecond):
	}
	// The held unit still serves while Close drains.
	if _, err := h.Server().Batcher().PredictBatch(fx[0].rows); err != nil {
		t.Fatalf("in-flight predict during Close: %v", err)
	}
	reg.Release(h)
	<-closed
	if _, err := reg.Acquire(fx[0].name); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: err = %v, want ErrClosed", err)
	}
}
