#!/bin/sh
# chaos_smoke.sh — the process-level fault-injection CI smoke: build the
# real binaries, start two disthd-serve worker shards and a disthd-cluster
# coordinator in front of them, drive load over loopback with
# `hdbench -chaos -http`, SIGKILL one worker mid-load, and require that
# the load run still exits 0 — hdbench exits nonzero unless every request
# was answered, so a kill the coordinator's retries, breaker, and local
# fallback fail to absorb fails this script too. Finally SIGTERM the
# coordinator and assert a clean drain (the "bye:" stats line only prints
# after in-flight requests are answered and the probe/merge loops have
# stopped).
#
# Everything trains the same deterministic demo model (-demo PAMAP2
# -dim 128 -scale 0.05 -seed 42), so the coordinator's local fallback
# answers exactly like the shards it stands in for.
SMOKE=chaos-smoke
. scripts/smoke_lib.sh

W1=${CHAOS_SMOKE_W1:-127.0.0.1:18091}
W2=${CHAOS_SMOKE_W2:-127.0.0.1:18092}
ADDR=${CHAOS_SMOKE_ADDR:-127.0.0.1:18090}
DEMO="-demo PAMAP2 -dim 128 -scale 0.05 -seed 42"

smoke_build disthd-serve disthd-cluster hdbench

echo "$SMOKE: starting workers on $W1 and $W2..."
smoke_start w1 disthd-serve -addr "$W1" $DEMO
smoke_start w2 disthd-serve -addr "$W2" $DEMO

echo "$SMOKE: starting coordinator on $ADDR..."
smoke_start cluster disthd-cluster -addr "$ADDR" -workers "$W1,$W2" $DEMO \
    -call-timeout 250ms -max-attempts 3 \
    -breaker-threshold 3 -breaker-open-for 500ms -probe-interval 100ms

# Wait for the coordinator to finish training its fallback and listen
# (single-core hosts train the three demo models back to back; hdbench's
# own /healthz poll only covers the last stretch).
i=0
while ! grep -q "coordinating" "$TMP/cluster.log" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 600 ] || ! kill -0 "$(smoke_pid cluster)" 2>/dev/null; then
        smoke_fail "coordinator never came up; log:" cluster
    fi
    sleep 0.1
done

echo "$SMOKE: driving load, then SIGKILLing worker 1 mid-run..."
smoke_start chaos hdbench -chaos -http "$ADDR" -dataset PAMAP2 -loadgen-scale 0.05 \
    -duration 4s -concurrency 2
sleep 2
smoke_kill w1
STATUS=0
wait "$(smoke_pid chaos)" || STATUS=$?
cat "$TMP/chaos.log"
[ "$STATUS" -eq 0 ] || smoke_fail "load run FAILED (dropped requests?); coordinator log:" cluster

smoke_drain cluster
echo "$SMOKE: OK (worker killed mid-load, 0 dropped, clean drain)"
