package serve

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	disthd "repro"
)

// ErrShapeMismatch marks a swap rejected because the incoming model's
// (features, dim, classes) differ from the serving model's. Check it with
// errors.Is; the wrapped message names both shapes.
var ErrShapeMismatch = errors.New("serve: swap shape mismatch")

// Swapper publishes the model a Batcher serves and lets an operator
// replace it atomically while traffic is in flight — the primitive that
// puts online retraining behind live serving: train a successor offline,
// Swap it in, and every micro-batch flushed after the swap classifies with
// the new weights while batches already running finish on the old ones.
// No request is ever dropped or served by a half-installed model, because
// each batch loads the pointer exactly once.
//
// Shape compatibility is enforced at swap time: the incoming model must
// match the current one's feature width, hypervector dimensionality and
// class count. That invariant is what lets serving replicas keep their
// leased scratch (disthd.Replica) across swaps instead of reallocating
// mid-traffic.
type Swapper struct {
	cur   atomic.Pointer[disthd.Model]
	swaps atomic.Uint64
}

// NewSwapper starts publishing m, which must be non-nil.
func NewSwapper(m *disthd.Model) (*Swapper, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: NewSwapper needs a model")
	}
	s := &Swapper{}
	s.cur.Store(m)
	return s, nil
}

// Current returns the model serving right now. The returned pointer stays
// valid (and immutable from the Swapper's side) after later swaps; callers
// running a batch should load it once and use it for the whole batch.
func (s *Swapper) Current() *disthd.Model { return s.cur.Load() }

// Swap atomically replaces the served model with next. It fails without
// side effects when next is nil or shaped differently from the current
// model.
func (s *Swapper) Swap(next *disthd.Model) error {
	if next == nil {
		return fmt.Errorf("serve: cannot swap in a nil model")
	}
	if err := s.fits(next.Features(), next.Dim(), next.Classes()); err != nil {
		return err
	}
	s.cur.Store(next)
	s.swaps.Add(1)
	return nil
}

// SwapIfCurrent atomically replaces the served model with next only if old
// is still the model serving — the conditional form of Swap, for
// publishing a background upgrade without clobbering a model someone else
// published concurrently (serve.Learner's full-window refit uses it so an
// operator /swap that lands mid-refit always wins). It returns whether the
// swap happened; a lost race is not an error.
func (s *Swapper) SwapIfCurrent(old, next *disthd.Model) (bool, error) {
	if next == nil {
		return false, fmt.Errorf("serve: cannot swap in a nil model")
	}
	if err := s.fits(next.Features(), next.Dim(), next.Classes()); err != nil {
		return false, err
	}
	if !s.cur.CompareAndSwap(old, next) {
		return false, nil
	}
	s.swaps.Add(1)
	return true, nil
}

// fits rejects a shape other than the serving model's with
// ErrShapeMismatch. Every swap preserves the shape, so it never changes.
func (s *Swapper) fits(features, dim, classes int) error {
	cur := s.cur.Load()
	if features != cur.Features() || dim != cur.Dim() || classes != cur.Classes() {
		return fmt.Errorf("%w: serving %d features/%d dims/%d classes, got %d/%d/%d",
			ErrShapeMismatch, cur.Features(), cur.Dim(), cur.Classes(), features, dim, classes)
	}
	return nil
}

// SwapReader reads a disthd.Model snapshot (the Model.Save format) from r
// and swaps it in. This is the transport behind the HTTP /swap endpoint.
// A snapshot shaped unlike the serving model is refused on its header,
// before its payload is decoded.
func (s *Swapper) SwapReader(r io.Reader) error {
	m, err := disthd.Load(r, s.fits)
	if err != nil {
		return fmt.Errorf("serve: swap payload: %w", err)
	}
	return s.Swap(m)
}

// Swaps returns how many swaps have completed.
func (s *Swapper) Swaps() uint64 { return s.swaps.Load() }
