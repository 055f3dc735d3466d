//go:build !race

package registry

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/serve"
)

// TestAcquireReleaseAllocs pins the dispatch contract with plain
// `go test`: resolving a resident tenant and releasing it allocates
// nothing. Built only without -race, which adds allocations of its own.
func TestAcquireReleaseAllocs(t *testing.T) {
	fx := fixtures(t)
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Install(fx[0].name, fx[0].m, Spec{Options: quickOpts()}); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		h, err := reg.Acquire(fx[0].name)
		if err != nil {
			t.Fatal(err)
		}
		reg.Release(h)
	})
	if got != 0 {
		t.Errorf("Acquire+Release: %v allocs, want 0", got)
	}
}

// wakeParkCycle runs one eviction cycle of two tenants alternating
// through a one-slot pool: Acquire tenant i%2, which parks the other (its
// idle replica to the idle set) and wakes this one (pool accounting only),
// runs one frame through it, which leases the replica the other's park
// released, and Releases it.
func wakeParkCycle(tb testing.TB, reg *Registry, ids [2]string, i int, rows int, out []int, fill func([]float64) error) {
	h, err := reg.Acquire(ids[i%2])
	if err != nil {
		tb.Fatal(err)
	}
	if err := h.Server().Batcher().PredictStream(rows, out, fill); err != nil {
		tb.Fatal(err)
	}
	reg.Release(h)
}

// TestWakeParkAllocBytes pins what an eviction cycle (wakeParkCycle)
// allocates once warm: at most 1 KiB, with or without a learner. The
// serving unit, its learner and feedback window (2.2 MiB here) stay where
// they are, the wake builds nothing, and the frame leases the replica the
// other tenant's park released.
func TestWakeParkAllocBytes(t *testing.T) {
	f := benchFixtures(t, 512)
	for _, c := range []struct {
		name    string
		learner *serve.LearnerOptions
		limit   uint64
	}{{"plain", nil, 1 << 10}, {"learner", wakeParkLearner, 1 << 10}} {
		reg, ids, fill := wakeParkRegistry(t, f, c.learner)
		out := make([]int, len(f.rows))
		for i := 0; i < 4; i++ {
			wakeParkCycle(t, reg, ids, i, len(f.rows), out, fill)
		}
		const cycles = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			wakeParkCycle(t, reg, ids, i, len(f.rows), out, fill)
		}
		runtime.ReadMemStats(&after)
		reg.Close()
		if got := (after.TotalAlloc - before.TotalAlloc) / cycles; got > c.limit {
			t.Errorf("%s wake+park cycle allocates %d bytes, want at most %d", c.name, got, c.limit)
		}
	}
}

// TestParkedTenantFootprint pins what a parked tenant keeps, the price of
// a serving unit that lasts its registration: 200 parked tenants of one
// model at the default spec (1 replica, MaxBatch 64) retain at most
// 32 KiB of heap and Replicas goroutines each — the Batcher's idle
// workers, its request queue and their batch buffers, the Server, the
// Swapper — and Close ends every one of those goroutines.
func TestParkedTenantFootprint(t *testing.T) {
	const tenants = 200
	m := fixtures(t)[0].m
	base := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reg, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	// A pinned resident tenant keeps the pool full, so every install
	// below stays parked.
	if err := reg.Install("pin", m, Spec{}); err != nil {
		t.Fatal(err)
	}
	pin, err := reg.Acquire("pin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		if err := reg.Install(fmt.Sprintf("p%d", i), m, Spec{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	goroutines := runtime.NumGoroutine() - base
	reg.Release(pin)
	st := reg.Stats()
	reg.Close()
	if st.ResidentCount != 1 || st.TenantCount != tenants+1 {
		t.Fatalf("%d of %d tenants resident, want only the pinned one", st.ResidentCount, st.TenantCount)
	}
	perTenant := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / (tenants + 1)
	t.Logf("a parked tenant retains %d B of heap and %.2f goroutines", perTenant, float64(goroutines)/(tenants+1))
	if perTenant > 32<<10 {
		t.Errorf("a parked tenant retains %d B of heap, want at most %d", perTenant, 32<<10)
	}
	if goroutines > tenants+1 {
		t.Errorf("%d tenants of 1 replica hold %d goroutines, want at most one each", tenants+1, goroutines)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the registry", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
