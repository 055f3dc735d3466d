package dataset

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func driftSource(t *testing.T) *Dataset {
	t.Helper()
	spec := tinySpec(31)
	train, _, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return train
}

func TestDriftStreamValidation(t *testing.T) {
	d := driftSource(t)
	if _, err := NewDriftStream(d, DriftShift, 0, 1, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := NewDriftStream(d, DriftShift, 1.5, 1, 1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := NewDriftStream(d, DriftShift, 0.5, -1, 1); err == nil {
		t.Fatal("negative severity accepted")
	}
	if _, err := NewDriftStream(d, DriftKind(9), 0.5, 1, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	empty := &Dataset{Name: "e", X: mat.New(0, 3), Y: nil, Classes: 2}
	if _, err := NewDriftStream(empty, DriftShift, 0.5, 1, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDriftStreamConsumesAll(t *testing.T) {
	d := driftSource(t)
	s, err := NewDriftStream(d, DriftShift, 0.5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != d.N() || s.Remaining() != d.N() {
		t.Fatal("length bookkeeping wrong")
	}
	n := 0
	for {
		x, label, ok := s.Next()
		if !ok {
			break
		}
		if len(x) != d.Features() {
			t.Fatal("wrong sample width")
		}
		if label < 0 || label >= d.Classes {
			t.Fatal("label out of range")
		}
		n++
	}
	if n != d.N() {
		t.Fatalf("consumed %d of %d", n, d.N())
	}
	if s.Remaining() != 0 {
		t.Fatal("Remaining after exhaustion not 0")
	}
}

func TestDriftSeverityGrows(t *testing.T) {
	d := driftSource(t)
	s, err := NewDriftStream(d, DriftShift, 1.0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Severity(0) != 0 {
		t.Fatalf("initial severity %v, want 0", s.Severity(0))
	}
	if math.Abs(s.Severity(d.N()-1)-3) > 1e-12 {
		t.Fatalf("final severity %v, want 3", s.Severity(d.N()-1))
	}
	if s.Severity(d.N()/2) <= s.Severity(1) {
		t.Fatal("severity not growing")
	}
}

func TestDriftShiftAffectsOnlyChosenFeatures(t *testing.T) {
	d := driftSource(t)
	s, err := NewDriftStream(d, DriftShift, 0.25, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Skip to the last sample where drift is maximal.
	var lastX []float64
	for {
		x, _, ok := s.Next()
		if !ok {
			break
		}
		lastX = x
	}
	orig := d.X.Row(d.N() - 1)
	changed := 0
	for j := range lastX {
		if lastX[j] != orig[j] {
			changed++
		}
	}
	want := len(s.affected)
	if changed != want {
		t.Fatalf("%d features changed, want %d", changed, want)
	}
}

func TestDriftScaleAndNoiseKinds(t *testing.T) {
	d := driftSource(t)
	for _, kind := range []DriftKind{DriftScale, DriftNoise} {
		s, err := NewDriftStream(d, kind, 0.5, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		// First sample has severity 0: must equal the source exactly.
		x0, _, ok := s.Next()
		if !ok {
			t.Fatal("empty stream")
		}
		for j := range x0 {
			if x0[j] != d.X.At(0, j) {
				t.Fatalf("kind %d corrupted the zero-severity sample", kind)
			}
		}
		// Drain; the last sample must differ from the source.
		var lastX []float64
		for {
			x, _, ok := s.Next()
			if !ok {
				break
			}
			lastX = x
		}
		same := true
		for j := range lastX {
			if lastX[j] != d.X.At(d.N()-1, j) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("kind %d never corrupted the final sample", kind)
		}
	}
}

func TestDriftResetReplaysDeterministically(t *testing.T) {
	d := driftSource(t)
	s, err := NewDriftStream(d, DriftShift, 0.5, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var first [][]float64
	for {
		x, _, ok := s.Next()
		if !ok {
			break
		}
		first = append(first, x)
	}
	s.pos = 0 // rewind; a DriftShift replay depends on the position only
	i := 0
	for {
		x, _, ok := s.Next()
		if !ok {
			break
		}
		for j := range x {
			if x[j] != first[i][j] {
				t.Fatal("DriftShift replay differs after a rewind")
			}
		}
		i++
	}
	if i != len(first) {
		t.Fatal("replay length differs")
	}
}

// TestDriftSeverityMonotoneAtBoundaries pins the severity ramp contract at
// the stream's edges: severity starts at exactly 0, ends at exactly
// maxSeverity, never decreases in between, and the single-sample stream —
// where the i/(N−1) ramp degenerates — reports maxSeverity rather than
// dividing by zero.
func TestDriftSeverityMonotoneAtBoundaries(t *testing.T) {
	src := driftSource(t)
	const maxSev = 2.5
	s, err := NewDriftStream(src, DriftShift, 0.5, maxSev, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Len()
	if got := s.Severity(0); got != 0 {
		t.Fatalf("severity at stream start = %v, want exactly 0", got)
	}
	if got := s.Severity(n - 1); got != maxSev {
		t.Fatalf("severity at stream end = %v, want exactly %v", got, maxSev)
	}
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		sev := s.Severity(i)
		if sev < prev {
			t.Fatalf("severity decreased at position %d: %v -> %v", i, prev, sev)
		}
		if sev < 0 || sev > maxSev {
			t.Fatalf("severity %v at position %d outside [0, %v]", sev, i, maxSev)
		}
		prev = sev
	}

	// Degenerate single-sample stream: the ramp has no interior, severity
	// must clamp to the maximum instead of dividing by zero.
	one := src.Subset([]int{0})
	s1, err := NewDriftStream(one, DriftScale, 0.5, maxSev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.Severity(0); got != maxSev {
		t.Fatalf("single-sample severity = %v, want %v", got, maxSev)
	}

	// The consumed stream must apply exactly the boundary severities: the
	// first emitted sample is uncorrupted, the last carries the full shift.
	s2, err := NewDriftStream(src, DriftShift, 0.5, maxSev, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, _, ok := s2.Next()
	if !ok {
		t.Fatal("stream empty")
	}
	for j, v := range first {
		if v != src.X.Row(0)[j] {
			t.Fatalf("first sample corrupted at feature %d: %v != %v", j, v, src.X.Row(0)[j])
		}
	}
	var last []float64
	for {
		x, _, ok := s2.Next()
		if !ok {
			break
		}
		last = x
	}
	want := mat.New(1, src.Features())
	copy(want.Row(0), src.X.Row(src.N()-1))
	shifted := 0
	for j, v := range last {
		switch {
		case v == want.Row(0)[j]:
		case v == want.Row(0)[j]+maxSev:
			shifted++
		default:
			t.Fatalf("last sample feature %d shifted by %v, want 0 or %v", j, v-want.Row(0)[j], maxSev)
		}
	}
	if shifted == 0 {
		t.Fatal("no feature carried the full end-of-stream shift")
	}
}
