package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// covers durations in (2^(i-1), 2^i] nanoseconds, so 48 buckets span from
// 1 ns to ~78 hours — every latency a serving process can observe.
const histBuckets = 48

// hist is a lock-free power-of-two histogram. Recording is one atomic
// increment; quantiles are read by summing the buckets, so snapshots taken
// under load are approximate in the usual monotonic-counter way.
type hist struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

// observe records one value (nanoseconds for latencies, rows for batch
// occupancy).
func (h *hist) observe(v uint64) {
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// quantile returns an upper bound for the q-quantile (0 < q <= 1): the top
// of the power-of-two bucket the quantile lands in, so the estimate is
// within 2× of the true value. Returns 0 when nothing was recorded.
func (h *hist) quantile(q float64) uint64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			return 1 << i
		}
	}
	return 1 << (histBuckets - 1)
}

// mean returns the arithmetic mean of recorded values, 0 when empty.
func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Stats aggregates the serving counters every Batcher maintains. All
// fields are updated with atomic operations on the hot path; Snapshot
// reads them without stopping traffic.
type Stats struct {
	start     time.Time
	requests  atomic.Uint64 // single predictions answered (ok or error)
	batchReqs atomic.Uint64 // rows answered through the direct batch path
	errors    atomic.Uint64
	latency   hist // coalesced single-prediction latency, ns
	occupancy hist // rows per flushed micro-batch
}

// newStats returns a zeroed Stats anchored at now.
func newStats() *Stats {
	return &Stats{start: time.Now()}
}

// observeLatency records one completed coalesced prediction.
func (s *Stats) observeLatency(d time.Duration, failed bool) {
	s.requests.Add(1)
	if failed {
		s.errors.Add(1)
	}
	if d < 0 {
		d = 0
	}
	s.latency.observe(uint64(d))
}

// observeBatch records one flushed micro-batch of n rows.
func (s *Stats) observeBatch(n int) {
	s.occupancy.observe(uint64(n))
}

// ClassAccuracy is the JSON shape of one class's drift attribution row
// (disthd.ClassDrift with NaNs flattened to 0 for the wire): how the served
// model's accuracy on this class moved between the post-bind baseline and
// the recent observation window. Classes with zero Observations carry no
// evidence — their accuracy fields are reported as 0.
type ClassAccuracy struct {
	// Class is the class index.
	Class int `json:"class"`
	// BaselineAccuracy is the class's accuracy over the frozen post-bind
	// baseline.
	BaselineAccuracy float64 `json:"baseline_accuracy"`
	// WindowAccuracy is the class's accuracy over the recent window.
	WindowAccuracy float64 `json:"window_accuracy"`
	// Drop is baseline minus window when both are defined, 0 otherwise —
	// the per-class drift attribution signal.
	Drop float64 `json:"drop"`
	// Observations counts the class's samples in the recent window.
	Observations int `json:"observations"`
}

// GateResult is the JSON shape of one champion/challenger gate evaluation
// (disthd.GateVerdict plus what the learner did with it), embedded in the
// learner gauges as the last verdict and the last rejection.
type GateResult struct {
	// Published is whether the challenger went live.
	Published bool `json:"published"`
	// Passed is the gate's own verdict; a forced retrain can publish with
	// Passed false.
	Passed bool `json:"passed"`
	// Forced is whether the publication bypassed the gate
	// (/retrain?force=1).
	Forced bool `json:"forced"`
	// ChampionAccuracy is the incumbent's holdout accuracy.
	ChampionAccuracy float64 `json:"champion_accuracy"`
	// ChallengerAccuracy is the retrained successor's holdout accuracy.
	ChallengerAccuracy float64 `json:"challenger_accuracy"`
	// Margin is challenger minus champion, judged against the gate margin.
	Margin float64 `json:"margin"`
	// HoldoutSize is how many held-out samples the verdict rests on.
	HoldoutSize int `json:"holdout_size"`
}

// QuantizationStats reports the 1-bit serving tier's state: whether the
// model serving right now is quantized, and how the /quantize endpoint's
// publications have gone. Server.Stats fills it; the counters live
// on the Server because quantization is an operator action, not a hot-path
// event.
type QuantizationStats struct {
	// Active is whether the currently serving model is 1-bit quantized.
	Active bool `json:"active"`
	// Publishes counts quantized successors that went live through
	// /quantize (forced ones included).
	Publishes uint64 `json:"publishes"`
	// Rejects counts quantized challengers the gate turned away; the f32
	// champion kept serving through each.
	Rejects uint64 `json:"rejects"`
	// LastGate is the most recent quantization gate evaluation, whatever
	// its outcome (nil before the first gated /quantize).
	LastGate *GateResult `json:"last_gate,omitempty"`
}

// Snapshot is a point-in-time copy of the serving counters, shaped for
// JSON (`GET /stats` returns exactly this struct).
type Snapshot struct {
	// UptimeSeconds is the time since the Batcher was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts single predictions answered through the coalescing
	// path, including failed ones.
	Requests uint64 `json:"requests"`
	// BatchRequests counts rows answered through the direct
	// PredictBatch path (no coalescing).
	BatchRequests uint64 `json:"batch_requests"`
	// Errors counts predictions that returned an error on any path,
	// including inputs rejected before reaching a batch.
	Errors uint64 `json:"errors"`
	// Swaps counts completed model hot-swaps. Stats itself does not track
	// swaps; Batcher.Stats fills this from its Swapper.
	Swaps uint64 `json:"swaps"`
	// Batches counts flushed micro-batches.
	Batches uint64 `json:"batches"`
	// MeanBatchRows is the mean rows per flushed micro-batch — the
	// batch-occupancy figure that tells whether coalescing is engaging
	// (1.0 means every request rode alone).
	MeanBatchRows float64 `json:"mean_batch_rows"`
	// MaxBatchRowsP99 is a power-of-two upper bound on the 99th
	// percentile batch occupancy.
	MaxBatchRowsP99 uint64 `json:"batch_rows_p99"`
	// LatencyMsP50/P90/P99 are power-of-two upper bounds on the
	// coalesced single-prediction latency quantiles, in milliseconds.
	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	// LatencyMsMean is the exact mean latency in milliseconds.
	LatencyMsMean float64 `json:"latency_ms_mean"`
	// WireJSONRequests and WireBinaryRequests count requests to the
	// format-negotiated HTTP endpoints (/predict, /predict_batch, /learn)
	// by wire format, so operators can watch a fleet migrate from JSON to
	// the binary frame protocol. Stats itself does not track formats;
	// Server.Stats fills these.
	WireJSONRequests   uint64 `json:"wire_json_requests"`
	WireBinaryRequests uint64 `json:"wire_binary_requests"`
	// Learner holds the online-learning gauges when a Learner is attached
	// to the server, nil otherwise. Stats itself does not track the
	// learner; Server.Stats fills this.
	Learner *LearnerSnapshot `json:"learner,omitempty"`
	// Quantization holds the 1-bit tier gauges. Stats itself does not
	// track quantization; Server.Stats fills this.
	Quantization *QuantizationStats `json:"quantization,omitempty"`
}

// Snapshot returns the current counters. It is safe to call while traffic
// is flowing.
func (s *Stats) Snapshot() Snapshot {
	ms := func(ns uint64) float64 { return float64(ns) / 1e6 }
	return Snapshot{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		BatchRequests:   s.batchReqs.Load(),
		Errors:          s.errors.Load(),
		Batches:         s.occupancy.n.Load(),
		MeanBatchRows:   s.occupancy.mean(),
		MaxBatchRowsP99: s.occupancy.quantile(0.99),
		LatencyMsP50:    ms(s.latency.quantile(0.50)),
		LatencyMsP90:    ms(s.latency.quantile(0.90)),
		LatencyMsP99:    ms(s.latency.quantile(0.99)),
		LatencyMsMean:   ms(uint64(s.latency.mean())),
	}
}
