//go:build !race

package registry

import (
	"runtime"
	"testing"

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
// through a one-slot pool: Acquire tenant i%2, which parks the other
// (batcher drain, scratch to the idle set) and wakes this one (a fresh
// batcher over its kept Swapper, its kept learner attached), runs one
// frame through it, which leases the replica the other's park released,
// and Releases it.
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
// allocates once warm: at most 64 KiB, with or without a learner. The
// wake builds a batcher but no routes and no scratch, the frame leases
// the replica the other tenant's park released, and a learner and its
// feedback window stay where they are (one window here is 2.2 MiB).
func TestWakeParkAllocBytes(t *testing.T) {
	f := benchFixtures(t, 512)
	for _, c := range []struct {
		name    string
		learner *serve.LearnerOptions
		limit   uint64
	}{{"plain", nil, 64 << 10}, {"learner", wakeParkLearner, 64 << 10}} {
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
