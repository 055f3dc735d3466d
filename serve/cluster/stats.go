package cluster

// WorkerSnapshot is one worker's row in the coordinator's /stats payload.
type WorkerSnapshot struct {
	// Addr is the worker's configured address.
	Addr string `json:"addr"`
	// Breaker is the circuit-breaker state: closed, open, or half-open.
	Breaker string `json:"breaker"`
	// Available is whether the breaker would admit a call right now.
	Available bool `json:"available"`
	// Healthy is the last active probe's verdict (true before any probe).
	Healthy bool `json:"healthy"`
	// Degraded is whether the worker self-reports degraded health; the
	// coordinator deprioritizes but does not exclude such a worker.
	Degraded bool `json:"degraded"`
	// Requests counts prediction calls launched at this worker, hedges
	// included.
	Requests uint64 `json:"requests"`
	// Failures counts calls that failed against this worker (probe
	// failures excluded).
	Failures uint64 `json:"failures"`
	// Retries counts retry attempts directed at this worker.
	Retries uint64 `json:"retries"`
	// Hedges counts hedged duplicates launched at this worker.
	Hedges uint64 `json:"hedges"`
	// ProbeFailures counts failed active health probes.
	ProbeFailures uint64 `json:"probe_failures"`
}

// Snapshot is a point-in-time copy of the coordinator's counters, shaped
// for JSON (the cluster Server's GET /stats returns exactly this struct).
type Snapshot struct {
	// Workers holds one row per configured worker.
	Workers []WorkerSnapshot `json:"workers"`
	// Available is how many workers the breakers would currently admit.
	Available int `json:"available"`
	// Quorum is the configured minimum for remote serving.
	Quorum int `json:"quorum"`
	// QuorumOK is whether Available >= Quorum right now.
	QuorumOK bool `json:"quorum_ok"`
	// Requests counts PredictBatch calls accepted by the coordinator.
	Requests uint64 `json:"requests"`
	// Rows counts rows across those calls.
	Rows uint64 `json:"rows"`
	// Dropped counts rows the coordinator failed to answer — the
	// fault-tolerance invariant is that this stays 0 (client-side input
	// errors are not drops).
	Dropped uint64 `json:"dropped"`
	// FallbackRows counts rows answered by the locally held fallback
	// model instead of a worker (graceful degradation).
	FallbackRows uint64 `json:"fallback_rows"`
	// QuorumMisses counts PredictBatch calls that found fewer than Quorum
	// available workers and went straight to the fallback.
	QuorumMisses uint64 `json:"quorum_misses"`
	// Retries counts retry attempts across all workers.
	Retries uint64 `json:"retries"`
	// Hedges counts hedged duplicates launched.
	Hedges uint64 `json:"hedges"`
	// HedgeWins counts hedges whose duplicate answered first.
	HedgeWins uint64 `json:"hedge_wins"`
	// Merges counts merge-loop rounds attempted.
	Merges uint64 `json:"merges"`
	// MergePublished counts merged candidates the gate published.
	MergePublished uint64 `json:"merge_published"`
	// MergeRejected counts merged candidates the gate rejected.
	MergeRejected uint64 `json:"merge_rejected"`
	// MergeErrors counts merge rounds that failed before a verdict.
	MergeErrors uint64 `json:"merge_errors"`
	// LastMergeUnix is the wall-clock second of the last merge round that
	// reached a verdict (0 before any).
	LastMergeUnix int64 `json:"last_merge_unix"`
	// HasFallback is whether a local fallback model is held.
	HasFallback bool `json:"has_fallback"`
	// WireJSONRequests and WireBinaryRequests count requests to the
	// cluster Server's format-negotiated endpoints (/predict,
	// /predict_batch) by wire format. The Coordinator itself does not
	// track formats; Server.Stats fills these.
	WireJSONRequests   uint64 `json:"wire_json_requests"`
	WireBinaryRequests uint64 `json:"wire_binary_requests"`
}
