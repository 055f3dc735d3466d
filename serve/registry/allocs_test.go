//go:build !race

package registry

import "testing"

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
