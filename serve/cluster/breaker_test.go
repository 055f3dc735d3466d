package cluster

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// breakerOp is one step of a table-driven breaker scenario.
type breakerOp struct {
	op        string        // "allow", "available", "success", "failure", "cancel", "advance"
	d         time.Duration // for "advance"
	want      bool          // for "allow" / "available"
	wantState BreakerState  // checked after every op
}

func TestBreakerTransitions(t *testing.T) {
	cfg := BreakerConfig{FailureThreshold: 3, OpenFor: time.Second}
	cases := []struct {
		name string
		ops  []breakerOp
	}{
		{
			name: "closed stays closed under threshold",
			ops: []breakerOp{
				{op: "failure", wantState: BreakerClosed},
				{op: "failure", wantState: BreakerClosed},
				{op: "allow", want: true, wantState: BreakerClosed},
			},
		},
		{
			name: "success resets the consecutive-failure count",
			ops: []breakerOp{
				{op: "failure", wantState: BreakerClosed},
				{op: "failure", wantState: BreakerClosed},
				{op: "success", wantState: BreakerClosed},
				{op: "failure", wantState: BreakerClosed},
				{op: "failure", wantState: BreakerClosed},
				{op: "allow", want: true, wantState: BreakerClosed},
			},
		},
		{
			name: "threshold consecutive failures open the breaker",
			ops: []breakerOp{
				{op: "failure", wantState: BreakerClosed},
				{op: "failure", wantState: BreakerClosed},
				{op: "failure", wantState: BreakerOpen},
				{op: "allow", want: false, wantState: BreakerOpen},
				{op: "available", want: false, wantState: BreakerOpen},
			},
		},
		{
			name: "cooldown expiry admits a half-open trial",
			ops: []breakerOp{
				{op: "failure"}, {op: "failure"}, {op: "failure", wantState: BreakerOpen},
				{op: "advance", d: 999 * time.Millisecond},
				{op: "allow", want: false, wantState: BreakerOpen},
				{op: "advance", d: time.Millisecond},
				{op: "available", want: true, wantState: BreakerOpen}, // peek does not transition
				{op: "allow", want: true, wantState: BreakerHalfOpen},
				{op: "allow", want: false, wantState: BreakerHalfOpen}, // one probe slot only
				{op: "available", want: false, wantState: BreakerHalfOpen},
			},
		},
		{
			name: "half-open success closes",
			ops: []breakerOp{
				{op: "failure"}, {op: "failure"}, {op: "failure", wantState: BreakerOpen},
				{op: "advance", d: time.Second},
				{op: "allow", want: true, wantState: BreakerHalfOpen},
				{op: "success", wantState: BreakerClosed},
				{op: "allow", want: true, wantState: BreakerClosed},
			},
		},
		{
			name: "half-open failure reopens and restarts the cooldown",
			ops: []breakerOp{
				{op: "failure"}, {op: "failure"}, {op: "failure", wantState: BreakerOpen},
				{op: "advance", d: time.Second},
				{op: "allow", want: true, wantState: BreakerHalfOpen},
				{op: "failure", wantState: BreakerOpen},
				{op: "allow", want: false, wantState: BreakerOpen},
				{op: "advance", d: 999 * time.Millisecond}, // old cooldown would have expired long ago
				{op: "allow", want: false, wantState: BreakerOpen},
				{op: "advance", d: time.Millisecond},
				{op: "allow", want: true, wantState: BreakerHalfOpen},
			},
		},
		{
			name: "cancel releases the half-open trial slot",
			ops: []breakerOp{
				{op: "failure"}, {op: "failure"}, {op: "failure", wantState: BreakerOpen},
				{op: "advance", d: time.Second},
				{op: "allow", want: true, wantState: BreakerHalfOpen},
				{op: "allow", want: false, wantState: BreakerHalfOpen},
				{op: "cancel", wantState: BreakerHalfOpen},
				{op: "allow", want: true, wantState: BreakerHalfOpen},
			},
		},
		{
			name: "stale success while open is ignored",
			ops: []breakerOp{
				{op: "failure"}, {op: "failure"}, {op: "failure", wantState: BreakerOpen},
				{op: "success", wantState: BreakerOpen},
				{op: "allow", want: false, wantState: BreakerOpen},
			},
		},
		{
			name: "failure while already open keeps the original cooldown",
			ops: []breakerOp{
				{op: "failure"}, {op: "failure"}, {op: "failure", wantState: BreakerOpen},
				{op: "advance", d: 500 * time.Millisecond},
				{op: "failure", wantState: BreakerOpen},
				{op: "advance", d: 500 * time.Millisecond}, // 1s since it opened
				{op: "allow", want: true, wantState: BreakerHalfOpen},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(0, 0)}
			b := newBreaker(cfg, clk.now)
			for i, op := range tc.ops {
				switch op.op {
				case "allow":
					if got := b.Allow(); got != op.want {
						t.Fatalf("op %d: Allow() = %v, want %v", i, got, op.want)
					}
				case "available":
					if got := b.available(); got != op.want {
						t.Fatalf("op %d: available() = %v, want %v", i, got, op.want)
					}
				case "success":
					b.Success()
				case "failure":
					b.Failure()
				case "cancel":
					b.Cancel()
				case "advance":
					clk.advance(op.d)
				default:
					t.Fatalf("op %d: unknown op %q", i, op.op)
				}
				// Every non-advance row pins the state; an omitted wantState
				// is the zero value BreakerClosed, which holds in every such
				// row above.
				if op.op != "advance" && b.State() != op.wantState {
					t.Fatalf("op %d (%s): state = %v, want %v", i, op.op, b.State(), op.wantState)
				}
			}
		})
	}
}

func TestBreakerDefaults(t *testing.T) {
	cfg := BreakerConfig{}.withDefaults()
	if cfg.FailureThreshold != 5 || cfg.OpenFor != 2*time.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open", BreakerState(42): "unknown",
	} {
		if got := s.String(); got != want {
			t.Fatalf("BreakerState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
