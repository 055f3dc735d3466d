package cluster

import (
	"sync"
	"time"
)

// BreakerState is one of the three circuit-breaker states a worker shard
// moves through: Closed (traffic flows, consecutive failures are counted),
// Open (the shard is presumed dead; calls are refused without touching the
// network), and HalfOpen (the cooldown expired; one trial call at a time
// probes whether the shard recovered).
type BreakerState int32

// The three breaker states. The zero value is BreakerClosed, so a freshly
// constructed breaker admits traffic.
const (
	// BreakerClosed admits every call and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses every call until the cooldown expires — a dead
	// shard costs one probe per cooldown instead of a timeout per request.
	BreakerOpen
	// BreakerHalfOpen admits one trial call at a time; its success closes
	// the breaker, its failure reopens it.
	BreakerHalfOpen
)

// String names the state for logs and the /stats JSON.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig configures one worker's circuit breaker. The zero value
// picks the defaults documented on each field.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures (passive request
	// failures and active probe failures both count) open the breaker.
	// Default 5.
	FailureThreshold int
	// OpenFor is the cooldown an open breaker waits before admitting a
	// half-open trial call. Default 2s.
	OpenFor time.Duration
}

// withDefaults fills unset fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor == 0 {
		c.OpenFor = 2 * time.Second
	}
	return c
}

// breaker is the per-worker three-state circuit breaker. All transitions
// run under one mutex; the clock is injected so tests drive transitions
// deterministically without wall-clock sleeps.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	trial    bool      // a half-open trial call is in flight
}

// newBreaker builds a closed breaker on the given clock.
func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	return &breaker{cfg: cfg.withDefaults(), now: now}
}

// Allow reports whether a call may proceed, transitioning Open to HalfOpen
// once the cooldown has expired. A true return while half-open claims the
// trial slot; the caller must settle it with Success, Failure, or Cancel.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.trial = false
		fallthrough
	case BreakerHalfOpen:
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
	return false
}

// available reports whether a call would currently be admitted, without
// claiming the half-open trial slot — what quorum counting and retry-target
// selection use.
func (b *breaker) available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(b.openedAt) >= b.cfg.OpenFor
	case BreakerHalfOpen:
		return !b.trial
	}
	return false
}

// Success settles a call that got an answer: it resets the consecutive-
// failure count, and a half-open success closes the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.fails = 0
		b.trial = false
	case BreakerOpen:
		// A stale success from before the breaker opened; ignore it.
	}
}

// Failure settles a failed call: the FailureThreshold-th consecutive
// failure opens a closed breaker, and any half-open failure reopens it
// (restarting the cooldown).
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.trial = false
	case BreakerOpen:
		// Already open; the cooldown keeps its original start.
	}
}

// Cancel releases the half-open trial slot claimed by Allow when the call
// was abandoned without a verdict — the hedge loser's path. A no-op in the
// other states.
func (b *breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.trial = false
	}
}

// State returns the current state (Open is reported as Open even when the
// cooldown has expired; the transition happens on the next Allow).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
