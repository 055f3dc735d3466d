package cluster

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// expBackoff is the un-jittered capped exponential the jitter is drawn
// around: BaseBackoff·2^(retry-1), capped at MaxBackoff.
func expBackoff(c RetryConfig, retry int) time.Duration {
	d := c.BaseBackoff
	for i := 1; i < retry; i++ {
		d <<= 1
		if d >= c.MaxBackoff || d <= 0 {
			return c.MaxBackoff
		}
	}
	if d > c.MaxBackoff {
		return c.MaxBackoff
	}
	return d
}

func TestBackoffJitterBounds(t *testing.T) {
	cfg := RetryConfig{BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}.withDefaults()
	r := rng.New(1)
	for retry := 1; retry <= 12; retry++ {
		d := expBackoff(cfg, retry)
		for trial := 0; trial < 64; trial++ {
			got := cfg.backoff(retry, r)
			if got < d/2 || got > d {
				t.Fatalf("retry %d: backoff %v outside equal-jitter bounds [%v, %v]", retry, got, d/2, d)
			}
		}
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	cfg := RetryConfig{BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}.withDefaults()
	// By retry 6 the raw exponential (5ms·2^5 = 160ms) is past the cap.
	for _, retry := range []int{6, 10, 30, 63, 100} {
		if d := expBackoff(cfg, retry); d != cfg.MaxBackoff {
			t.Fatalf("retry %d: exponential %v, want cap %v", retry, d, cfg.MaxBackoff)
		}
	}
	// A huge base must not overflow into a negative sleep.
	big := RetryConfig{BaseBackoff: time.Duration(1) << 62, MaxBackoff: time.Duration(1)<<62 + 1}.withDefaults()
	r := rng.New(3)
	for retry := 1; retry <= 4; retry++ {
		if got := big.backoff(retry, r); got < 0 {
			t.Fatalf("retry %d: negative backoff %v after shift overflow", retry, got)
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	cfg := RetryConfig{}.withDefaults()
	draw := func(seed uint64) []time.Duration {
		r := rng.New(seed)
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = cfg.backoff(1+i%4, r)
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: seed 42 gave %v then %v — jitter is not deterministic", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical jitter sequences")
	}
}

func TestRetryDefaults(t *testing.T) {
	cfg := RetryConfig{}.withDefaults()
	if cfg.MaxAttempts != 3 || cfg.BaseBackoff != 5*time.Millisecond || cfg.MaxBackoff != 100*time.Millisecond || cfg.HedgeAfter != 0 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestBackoffZeroBase(t *testing.T) {
	cfg := RetryConfig{BaseBackoff: -1, MaxBackoff: time.Millisecond}
	r := rng.New(9)
	if got := cfg.backoff(1, r); got != 0 {
		t.Fatalf("non-positive base: backoff = %v, want 0", got)
	}
}
