# Tier-1 verification and benchmark targets for the DistHD reproduction.
#
# `make ci` is the documented tier-1 gate: formatting, vet, the exported-
# identifier doc check on the public surface, build, race-enabled tests
# (which include the runnable godoc Examples in the root and serve
# packages), and a one-iteration benchmark smoke pass so the perf harness
# itself cannot rot. `make bench` produces the numbers recorded in PERF.md.

GO ?= go

.PHONY: ci fmt-check vet doc-check build test race bench-smoke fuzz-smoke bench-compare bench-snapshot drift-smoke drift-http-smoke chaos-smoke wire-smoke registry-smoke bench bench-kernels bench-serve bench-drift bench-cluster bench-registry

ci: fmt-check vet doc-check build race bench-smoke fuzz-smoke bench-compare drift-smoke drift-http-smoke chaos-smoke wire-smoke registry-smoke

# gofmt must be a no-op across the tree.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The public surface (root package, serve, and its subpackages) must not
# export an undocumented identifier.
doc-check:
	$(GO) run ./cmd/doccheck . ./serve ./serve/cluster ./serve/wire ./serve/registry

build:
	$(GO) build ./...

# Tier-1 tests run with a shuffled execution order so inter-test state
# dependencies cannot hide.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# One iteration of every benchmark: catches bit-rot in the perf harness
# without paying for stable timings.
bench-smoke:
	$(GO) test ./... -run xxx -bench . -benchtime 1x

# The fuzz targets' seed corpora, run deterministically (plain `go test`
# executes every f.Add seed; no fuzzing engine involved).
fuzz-smoke:
	$(GO) test -run 'FuzzFeedbackWindow|FuzzModelLoad' .
	$(GO) test -run 'FuzzBitpackRoundTrip' ./internal/bitpack
	$(GO) test -run 'FuzzWireFrame' ./serve/wire

# The perf-regression gate: re-measure the SIMD-critical kernel benchmarks
# (bitpack score/pack, mat GEMM/dot) and fail if any regressed past the
# committed baseline with non-overlapping sample ranges (see
# cmd/benchcompare for the noise rules). The threshold is calibrated to
# this host: the shared-VM scheduler shifts whole benchmark runs by ±35%
# between quiet and loaded phases (measured on identical code), so the
# gate flags only distribution shifts a kernel bug would cause — a
# dropped asm tier is ≥3×, a lost fused path ≥2× — not phase drift.
# Finer trends are tracked across PRs by the committed BENCH_*.json
# snapshots. Refresh bench/baseline.txt on a quiet machine when a
# deliberate perf change lands. The comparison is written to the
# git-ignored bench/current.json; `make bench-snapshot PR=N` runs the same
# gate and records it as the committed BENCH_PRN.json on purpose.
bench-compare:
	@$(GO) test ./internal/bitpack -run xxx -bench 'BenchmarkScoreBatch|BenchmarkPackSigns' \
		-benchtime 50ms -count 5 > bench/current.txt
	@$(GO) test ./internal/mat -run xxx -bench 'BenchmarkMulTInto|BenchmarkDotBatch' \
		-benchtime 50ms -count 5 >> bench/current.txt
	@$(GO) test ./serve/cluster -run xxx -bench 'BenchmarkDirectWorker|BenchmarkCoordinator' \
		-benchtime 50ms -count 5 >> bench/current.txt
	@$(GO) test ./serve/registry -run xxx -bench 'BenchmarkRegistryPredictBatch|BenchmarkRegistryDispatch' \
		-benchtime 50ms -count 5 >> bench/current.txt
	$(GO) run ./cmd/benchcompare -baseline bench/baseline.txt -threshold 1.50 \
		-json bench/current.json bench/current.txt

bench-snapshot: bench-compare
	@test -n "$(PR)" || { echo "usage: make bench-snapshot PR=N"; exit 2; }
	cp bench/current.json BENCH_PR$(PR).json

# One CI-sized pass of the streaming drift benchmark, so the closed-loop
# learner harness cannot rot.
drift-smoke:
	$(GO) run ./cmd/hdbench -driftgen -quick

# The live-HTTP drift loop end to end: launch a real disthd-serve process
# with the gated learner, drive one quick `hdbench -driftgen -http` pass
# against it over loopback, and assert a clean SIGTERM drain.
drift-http-smoke:
	sh scripts/drift_http_smoke.sh

# The fault-tolerance invariant end to end at the process level: two live
# worker shards behind a disthd-cluster coordinator, one SIGKILLed under
# load, zero dropped requests required, clean coordinator drain asserted.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# The binary frame protocol end to end at the process level: a live
# disthd-serve driven by `hdbench -loadgen -http ... -wire binary` (and a
# JSON pass for comparison), per-format /stats counters checked, clean
# SIGTERM drain asserted.
wire-smoke:
	sh scripts/wire_smoke.sh

# The multi-tenant registry end to end at the process level: a live
# `disthd-serve -registry` with three boot tenants through a 2-replica
# pool, mixed JSON+binary traffic from `hdbench -loadgen -tenants -http`
# (which installs three more over PUT /t/{id}), forced LRU eviction
# churn asserted from /stats, per-tenant stats scraped, DELETE drain and
# clean SIGTERM drain asserted.
registry-smoke:
	sh scripts/registry_smoke.sh

# The kernel and end-to-end benchmarks behind PERF.md, with allocation
# reporting and enough repetitions for benchstat.
bench:
	$(GO) test ./internal/mat ./internal/encoding ./internal/model \
		-run xxx -bench . -benchtime 1s -count 5
	$(GO) test . -run xxx -bench 'BenchmarkTrainDistHD|BenchmarkInference' \
		-benchtime 2x -count 5

bench-kernels:
	$(GO) test ./internal/mat -run xxx -bench . -benchtime 1s

# The serving table of PERF.md: per-request Predict vs the micro-batching
# Batcher across dimensionality and concurrency.
bench-serve:
	$(GO) test ./serve -run xxx -bench 'Serve(PerRequest|Batched)|WireHandlerBatch' \
		-benchtime 2s -count 3

# The streaming table of PERF.md: windowed accuracy of the frozen model vs
# the ungated and gated adaptive servers over a drifting labeled stream,
# then the bad-teacher pass (35% of feedback labels flipped) where the
# champion/challenger gate must reject the garbage challengers the ungated
# server publishes.
bench-drift:
	$(GO) run ./cmd/hdbench -driftgen
	$(GO) run ./cmd/hdbench -driftgen -drift-kinds shift -drift-label-noise 0.35

# The fault-tolerance table of PERF.md: coordinator overhead vs a direct
# worker call on the happy path, then the in-process chaos run (worker
# killed at 1/3, worker stalled at 2/3) with its latency distribution.
bench-cluster:
	$(GO) test ./serve/cluster -run xxx -bench . -benchtime 2s -count 3
	$(GO) run ./cmd/hdbench -chaos -dataset PAMAP2 -dim 128 -loadgen-scale 0.05 \
		-duration 4s -concurrency 3

# The multi-tenant table of PERF.md: per-tenant batched throughput and
# Acquire/Release dispatch overhead, plus the mixed-workload loadgen with
# a pool small enough to force eviction churn.
bench-registry:
	$(GO) test ./serve/registry -run xxx -bench . -benchtime 2s -count 3
	$(GO) run ./cmd/hdbench -loadgen -tenants 3 -pool 2 -dim 128 \
		-loadgen-scale 0.05 -concurrency 8 -duration 2s
