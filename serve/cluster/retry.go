package cluster

import (
	"time"

	"repro/internal/rng"
)

// RetryConfig shapes the coordinator's per-chunk retry policy: how many
// workers a failing chunk may visit, how the pre-retry backoff grows, and
// when a hedged duplicate of a slow call launches. The zero value picks
// the defaults documented on each field.
type RetryConfig struct {
	// MaxAttempts is the total number of tries a chunk gets, the first
	// call included; later attempts go to a different worker when one is
	// available. Default 3.
	MaxAttempts int
	// BaseBackoff is the backoff before the first retry; attempt n waits
	// BaseBackoff·2^(n-1), jittered. Default 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 100ms.
	MaxBackoff time.Duration
	// HedgeAfter, when positive, launches a duplicate of an unanswered
	// call on a second worker after this long — the tail-latency hedge.
	// The first answer wins and the loser is canceled. Default 0 (off).
	HedgeAfter time.Duration
}

// withDefaults fills unset fields.
func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 100 * time.Millisecond
	}
	return c
}

// backoff returns the pre-sleep before retry number retry (1-based):
// exponential growth BaseBackoff·2^(retry-1) capped at MaxBackoff, with
// equal-jitter drawn from r so synchronized retries de-correlate. The
// result is always within [d/2, d] for the capped exponential d — the
// bound the retry tests pin.
func (c RetryConfig) backoff(retry int, r *rng.Rand) time.Duration {
	d := c.BaseBackoff
	for i := 1; i < retry; i++ {
		d <<= 1
		if d >= c.MaxBackoff || d <= 0 {
			d = c.MaxBackoff
			break
		}
	}
	if d > c.MaxBackoff {
		d = c.MaxBackoff
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(r.Uint64()%uint64(d-half+1))
}
