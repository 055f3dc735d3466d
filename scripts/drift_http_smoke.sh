#!/bin/sh
# drift_http_smoke.sh — the live-HTTP driftgen CI smoke: build the real
# binaries, start disthd-serve with the gated learner attached, run one
# CI-sized `hdbench -driftgen -quick -http` pass against it over loopback
# (the driftgen side polls /healthz, so no readiness dance is needed here),
# then SIGTERM the server and assert the drain completed cleanly (the
# "bye:" line only prints after every accepted micro-batch is answered).
#
# The server's -demo/-dim must match driftgen's -quick shape (PAMAP2,
# D=128) so the benchmark can install its own base model via /swap.
SMOKE=drift-http-smoke
. scripts/smoke_lib.sh

ADDR=${DRIFT_SMOKE_ADDR:-127.0.0.1:18086}

smoke_build disthd-serve hdbench

echo "$SMOKE: starting disthd-serve on $ADDR..."
smoke_start serve disthd-serve -addr "$ADDR" -demo PAMAP2 -dim 128 -scale 0.05 \
    -learn -auto-retrain -learn-window 128 -learn-recent 32 \
    -drift-threshold 0.10 -retrain-iters 3 -retrain-cooldown 1ms

echo "$SMOKE: running hdbench -driftgen -quick -http $ADDR..."
"$TMP/hdbench" -driftgen -quick -http "$ADDR" -drift-kinds shift ||
    smoke_fail "driftgen FAILED; server log:" serve

smoke_drain serve
echo "$SMOKE: OK (clean SIGTERM drain)"
