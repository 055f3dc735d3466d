package assoc

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

const testDim = 2048

// bipolar draws a random ±1 hypervector of dimension d.
func bipolar(d int, r *rng.Rand) []float64 {
	h := make([]float64, d)
	for i := range h {
		h[i] = r.Bipolar()
	}
	return h
}

// bind is the HDC association operator, the element-wise product; for
// bipolar inputs it is its own inverse.
func bind(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

func filled(t *testing.T, names ...string) (*Memory, map[string][]float64) {
	t.Helper()
	r := rng.New(1)
	m := New(testDim)
	items := map[string][]float64{}
	for _, n := range names {
		h := bipolar(testDim, r)
		items[n] = h
		if err := m.Store(n, h); err != nil {
			t.Fatal(err)
		}
	}
	return m, items
}

// stored returns the row m holds for name, nil when it holds none.
func stored(m *Memory, name string) []float64 {
	i, ok := m.index[name]
	if !ok {
		return nil
	}
	return m.items.Row(i)
}

func TestStoreAndGet(t *testing.T) {
	m, items := filled(t, "apple", "banana", "cherry")
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	got := stored(m, "banana")
	if len(got) != testDim {
		t.Fatalf("stored banana has %d values, want %d", len(got), testDim)
	}
	for i := range got {
		if got[i] != items["banana"][i] {
			t.Fatal("Store kept the wrong item")
		}
	}
	if stored(m, "durian") != nil {
		t.Fatal("an item never stored is present")
	}
}

func TestStoreValidation(t *testing.T) {
	m := New(8)
	if err := m.Store("", make([]float64, 8)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := m.Store("x", make([]float64, 7)); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestStoreReplaces(t *testing.T) {
	m := New(4)
	if err := m.Store("x", []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Store("x", []float64{-1, -1, -1, -1}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("replace grew the memory: Len=%d", m.Len())
	}
	if got := stored(m, "x"); got[0] != -1 {
		t.Fatal("replace did not update the item")
	}
}

func TestRecallCleansNoise(t *testing.T) {
	m, items := filled(t, "a", "b", "c", "d", "e")
	r := rng.New(2)
	// Corrupt 20% of "c" and recall.
	noisy := make([]float64, testDim)
	copy(noisy, items["c"])
	for i := 0; i < testDim/5; i++ {
		noisy[r.Intn(testDim)] *= -1
	}
	name, clean, sim, err := m.Recall(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if name != "c" {
		t.Fatalf("recalled %q, want c", name)
	}
	if sim < 0.4 {
		t.Fatalf("similarity %.3f suspiciously low", sim)
	}
	for i := range clean {
		if clean[i] != items["c"][i] {
			t.Fatal("recall must return the CLEAN stored item")
		}
	}
}

func TestRecallEmptyAndBadQuery(t *testing.T) {
	m := New(8)
	if _, _, _, err := m.Recall(make([]float64, 8)); err == nil {
		t.Fatal("recall from empty memory succeeded")
	}
	if err := m.Store("x", make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Recall(make([]float64, 7)); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
}

func TestRecallAboveThreshold(t *testing.T) {
	m, items := filled(t, "a", "b")
	// Clean query passes a high threshold.
	if _, _, _, err := m.RecallAbove(items["a"], 0.9); err != nil {
		t.Fatal(err)
	}
	// A random unrelated query must be rejected at a modest threshold.
	unknown := bipolar(testDim, rng.New(3))
	if _, _, _, err := m.RecallAbove(unknown, 0.5); err == nil {
		t.Fatal("unknown input recognized above threshold")
	}
}

// Decomposing a bundle: recall each member from the bundled composite —
// the memory operation §III-A of the paper describes.
func TestRecallFromBundle(t *testing.T) {
	m, items := filled(t, "x", "y", "z")
	bundle := make([]float64, testDim) // bundling is element-wise addition
	for i := range bundle {
		bundle[i] = items["x"][i] + items["y"][i]
	}
	name, _, sim, err := m.Recall(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if name != "x" && name != "y" {
		t.Fatalf("bundle recalled unrelated item %q", name)
	}
	if sim < 0.3 {
		t.Fatalf("bundle similarity %.3f too low", sim)
	}
	// "z" must score clearly lower than the bundle members.
	zsim := mat.CosineSim(bundle, items["z"])
	if zsim > sim {
		t.Fatal("non-member outranked a bundle member")
	}
}

// Unbinding: recover a bound pair's second element via the first.
func TestRecallAfterUnbinding(t *testing.T) {
	m, items := filled(t, "role", "filler", "other")
	bound := bind(items["role"], items["filler"])
	// bound * role = filler (bipolar binding is self-inverse)
	recovered := bind(bound, items["role"])
	name, _, _, err := m.Recall(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if name != "filler" {
		t.Fatalf("unbinding recalled %q, want filler", name)
	}
}

func TestNamesInsertionOrder(t *testing.T) {
	m, _ := filled(t, "first", "second", "third")
	if names := m.names; names[0] != "first" || names[2] != "third" {
		t.Fatalf("names = %v", names)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero dimension accepted")
		}
	}()
	New(0)
}
