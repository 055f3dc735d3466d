#!/bin/sh
# wire_smoke.sh — the wire-format CI smoke at the process level: build the
# real binaries, start a disthd-serve, drive it with
# `hdbench -loadgen -http ... -wire binary` (hdbench exits nonzero if any
# request fails or answers the wrong number of classes), then `-wire f32`
# (float32 request frames) and `-wire json` passes over the same process,
# check that /stats counted requests under both formats, then SIGTERM the
# server and assert a clean drain (the "bye:" line only prints after every
# accepted micro-batch is answered).
#
# The server and the load generator train the same deterministic demo
# model (-demo PAMAP2 -dim 128 -scale 0.05 -seed 42), so the feature
# widths agree on both ends.
SMOKE=wire-smoke
. scripts/smoke_lib.sh

ADDR=${WIRE_SMOKE_ADDR:-127.0.0.1:18095}

smoke_build disthd-serve hdbench

echo "$SMOKE: starting disthd-serve on $ADDR..."
smoke_start serve disthd-serve -addr "$ADDR" -demo PAMAP2 -dim 128 -scale 0.05

for wire in binary f32 json; do
    echo "$SMOKE: running hdbench -loadgen -http $ADDR -wire $wire..."
    "$TMP/hdbench" -loadgen -http "$ADDR" -wire "$wire" \
        -dataset PAMAP2 -loadgen-scale 0.05 -concurrency 2 -duration 1s ||
        smoke_fail "loadgen -wire $wire FAILED; server log:" serve
done

# Both formats must have been counted by the live server.
STATS=$(fetch "http://$ADDR/stats")
for key in wire_binary_requests wire_json_requests; do
    case "$STATS" in
    *"\"$key\":0"*|*"\"$key\":0,"*)
        smoke_fail "/stats reports $key = 0 after the $key load pass; stats: $STATS" ;;
    *"\"$key\":"*) ;;
    *)
        smoke_fail "/stats is missing $key; stats: $STATS" ;;
    esac
done

smoke_drain serve
echo "$SMOKE: OK (binary + f32 + json served, counters live, clean SIGTERM drain)"
