package dataset

import (
	"fmt"

	"repro/internal/rng"
)

// DriftKind selects how a DriftStream corrupts the input distribution over
// time.
type DriftKind int

const (
	// DriftShift adds a growing constant offset to a subset of features —
	// sensor decalibration.
	DriftShift DriftKind = iota
	// DriftScale multiplies a subset of features by a growing gain —
	// sensor sensitivity drift.
	DriftScale
	// DriftNoise adds Gaussian noise of growing magnitude — degrading
	// signal quality.
	DriftNoise
)

// DriftStream wraps a dataset as a time-ordered stream whose input
// distribution drifts as it is consumed: sample i is corrupted with
// severity proportional to i/N. It models the slow environmental change an
// always-on edge deployment faces (sensor aging, remounting, seasonal
// shift) and is the substrate behind the continual-learning experiments
// and the drift example.
type DriftStream struct {
	src  *Dataset
	kind DriftKind
	// MaxSeverity is the corruption magnitude reached at the stream's end.
	maxSeverity float64
	// affected lists the feature indices the drift touches.
	affected []int
	noise    *rng.Rand
	pos      int
}

// NewDriftStream builds a stream over d (consumed in row order) that
// drifts `fraction` of the features up to maxSeverity by the final sample.
func NewDriftStream(d *Dataset, kind DriftKind, fraction, maxSeverity float64, seed uint64) (*DriftStream, error) {
	if d.N() == 0 {
		return nil, fmt.Errorf("dataset: drift stream over empty dataset")
	}
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("dataset: drift fraction %v outside (0,1]", fraction)
	}
	if maxSeverity < 0 {
		return nil, fmt.Errorf("dataset: negative drift severity %v", maxSeverity)
	}
	switch kind {
	case DriftShift, DriftScale, DriftNoise:
	default:
		return nil, fmt.Errorf("dataset: unknown drift kind %d", kind)
	}
	r := rng.New(seed)
	q := d.Features()
	count := int(fraction * float64(q))
	if count < 1 {
		count = 1
	}
	affected := r.Perm(q)[:count]
	return &DriftStream{
		src:         d,
		kind:        kind,
		maxSeverity: maxSeverity,
		affected:    affected,
		noise:       r.Split(),
	}, nil
}

// Len returns the stream length.
func (s *DriftStream) Len() int { return s.src.N() }

// Remaining returns how many samples have not been consumed yet.
func (s *DriftStream) Remaining() int { return s.src.N() - s.pos }

// Severity returns the corruption magnitude applied at stream position i.
func (s *DriftStream) Severity(i int) float64 {
	if s.src.N() <= 1 {
		return s.maxSeverity
	}
	return s.maxSeverity * float64(i) / float64(s.src.N()-1)
}

// Next returns the next (drifted) sample and its label; ok is false when
// the stream is exhausted. The returned slice is a fresh copy.
func (s *DriftStream) Next() (x []float64, label int, ok bool) {
	if s.pos >= s.src.N() {
		return nil, 0, false
	}
	i := s.pos
	s.pos++
	x = make([]float64, s.src.Features())
	copy(x, s.src.X.Row(i))
	sev := s.Severity(i)
	for _, f := range s.affected {
		switch s.kind {
		case DriftShift:
			x[f] += sev
		case DriftScale:
			x[f] *= 1 + sev
		case DriftNoise:
			x[f] += sev * s.noise.NormFloat64()
		}
	}
	return x, s.src.Y[i], true
}
