// Package disthd is a from-scratch Go implementation of DistHD (Wang,
// Huang, Imani — DAC 2023): a hyperdimensional-computing classifier with a
// learner-aware dynamic encoder that identifies and regenerates the
// hypervector dimensions misleading classification, reaching static-encoder
// accuracy at a fraction of the dimensionality.
//
// The public API covers the full lifecycle a downstream user needs:
//
//   - Train / TrainWithConfig fit a DistHD classifier on float feature
//     vectors with integer labels.
//   - Model.Predict / PredictTop2 / Scores / Evaluate run inference.
//   - Model.Save / Load round-trip a trained model through any io.Writer /
//     io.Reader.
//   - Model.Deploy packs the class hypervectors into a b-bit memory image
//     for edge deployment; Deployed.Inject simulates hardware bit flips so
//     the robustness of a configuration can be measured before committing
//     to silicon.
//   - Model.Quantize1Bit freezes a trained model into a servable 1-bit
//     view (the paper's most robust quantized configuration): packed
//     sign-bit class hypervectors, queries encoded straight to sign bits,
//     XOR+popcount scoring — several times f32 batched throughput at the
//     same shape. A quantized model predicts, serializes (packed wire
//     format), and serves through Replica, but refuses to learn; keep the
//     f32 champion for training and quantize successors from it, gating
//     each publish on measured holdout accuracy (Model.Quantize1BitGated;
//     serve does this on POST /quantize).
//   - SyntheticBenchmark regenerates the paper's five evaluation datasets
//     (as synthetic stand-ins with matching shape) at any scale, and
//     ReadCSV/LoadCSVFile bring in real data.
//   - Model.NewReplica builds the per-goroutine zero-allocation batch
//     inference context that online serving is built on.
//   - OnlineLearner closes the loop at deployment time: a bounded window
//     of labeled feedback, windowed accuracy with drift detection and
//     per-class attribution (DriftReport names the classes whose accuracy
//     sags), and retrain rounds built on Model.Retrain — a warm rerun of
//     the train → score → regenerate pipeline on the window, its budget
//     scaled by the measured drift severity — producing a successor model
//     while the original keeps serving.
//   - A RetrainRound is the one definition of a retrain:
//     OnlineLearner.BeginRetrain counts the attempt and snapshots the
//     champion, the window split, and the attempt's seed and budget;
//     Challenge trains and judges the challenger, Refit trains on the full
//     window, and OnlineLearner.Record counts the publish or the
//     rejection. Retrain and RetrainGated run a round inline; serve.Learner
//     runs the same round in the background.
//   - Gate is the champion/challenger publication gate: a retrained
//     successor is scored against the serving incumbent on a stratified
//     held-out slice of the feedback window (SplitWindow) and replaces it
//     only on a passing margin — a retrain on a noisy or unlucky window
//     can produce a successor worse than the incumbent, and the gate keeps
//     such a challenger from ever serving. OnlineLearner.RetrainGated runs
//     the whole train → judge → refit-on-accept round.
//
// Online serving lives in the serve subpackage: a micro-batching Batcher
// that gives concurrent single-request callers batched-GEMM throughput, an
// atomic model hot-swap (Swapper), an HTTP Server speaking JSON and — on
// Content-Type application/x-disthd-frame — the compact binary frame
// protocol of serve/wire (3-7x the JSON wire throughput; decoded rows
// land directly in the replica's leased batch scratch), and a Learner
// that wires OnlineLearner behind the endpoints (/learn, /retrain with a
// ?force=1 gate bypass) with background drift-adaptive retraining routed
// through the Gate — run it with cmd/disthd-serve (-learn -auto-retrain;
// -no-gate and -gate-margin tune the gate), load-test it with
// `hdbench -loadgen` (against a live server: -http <addr>, and
// -wire binary to measure the frame protocol end to end), and measure the
// adaptation win (frozen vs ungated vs gated, in-process or against a
// live server with -http) with `hdbench -driftgen`.
//
// Multi-tenant serving lives in serve/registry: a Registry keyed by
// model ID serves MANY models from one process behind /t/{model}/...
// routes (the first tenant also answers the plain routes, byte-identical
// to a single-model server), sharing a bounded replica budget with LRU
// parking of cold tenants and 429 admission control when the pool is
// pinned — run it with `disthd-serve -registry -tenant id=DEMO,...` and
// load it with `hdbench -loadgen -tenants N`.
//
// Fault-tolerant sharded serving lives in serve/cluster: a Coordinator
// fans batches out across worker shards behind per-worker circuit
// breakers with retries, backoff, hedging, and active health probes,
// degrades onto a locally held fallback model below quorum, and closes
// the learning loop by pulling shard models over GET /model, averaging
// them (AverageModels), and gating the merged candidate before
// republication — run it with cmd/disthd-cluster and prove the
// zero-dropped-requests invariant under kill/stall faults with
// `hdbench -chaos`.
//
// The research internals — the baselines (NeuralHD, baselineHD, MLP, SVM),
// the experiment harness that regenerates every table and figure of the
// paper, and the substrates they share — live under internal/ and are
// exercised by cmd/hdbench and the benchmarks in bench_test.go.
// ARCHITECTURE.md maps the full layer stack (kernels → encoding → model →
// learners → public API → serve) with pointers into every package.
//
// # Performance architecture
//
// Every hot path (batch encoding, similarity search, the adaptive training
// iteration) bottoms out in the cache-blocked, register-tiled kernels of
// internal/mat. The load-bearing pieces:
//
//   - mat.MulTInto / mat.MulTIntoFused: destination-passing A·Bᵀ — the
//     shape of both HDC hot paths — blocked over the shared dimension and
//     register-tiled 2×4, with an optional elementwise epilogue applied to
//     each output row while it is still cache-hot. On amd64 with AVX2+FMA
//     the micro-kernels dispatch to assembly (internal/mat/simd_amd64.s);
//     the pure-Go lane kernels produce bit-identical results everywhere
//     else.
//   - encoding.*.EncodeBatchInto: batch encoding as one blocked GEMM with
//     the encoder nonlinearity fused on, instead of N matrix-vector loops;
//     EncodeDimsBatch patches only the regenerated columns of an encoded
//     batch in place (the paper's cheap-retrain path).
//   - model.ScoreBatchInto / PredictBatchInto / Trainer.Epoch: batched
//     similarity and the training epoch over caller-owned buffers — the
//     steady-state loops allocate nothing.
//   - mat.ParallelFor: shard fan-out over a persistent worker pool;
//     mat.GetScratch: pooled temporaries.
//
// PERF.md records the measured before/after numbers; `make ci` is the
// tier-1 gate (vet + build + race tests + benchmark smoke) and `make
// bench` reproduces the measurements.
package disthd
