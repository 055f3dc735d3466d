#!/bin/sh
# registry_smoke.sh — the multi-tenant registry CI smoke at the process
# level: build the real binaries, boot a `disthd-serve -registry` with
# three heterogeneous boot tenants squeezed through a 2-replica pool
# (so LRU parking is forced from the first minute), then drive it with
# `hdbench -loadgen -tenants 3 -http` once over JSON and once over the
# binary frame protocol (hdbench installs three more tenants over
# PUT /t/{id} and exits nonzero if any request ultimately fails — 429s
# are retried, never dropped). Afterwards the script asserts the
# registry actually churned (evictions > 0 in /stats), proves a
# learning tenant's feedback counter survives a park/wake cycle, scrapes
# a per-tenant /t/{model}/stats, removes a tenant over DELETE, and
# SIGTERMs the server expecting a clean drain (the "bye:" line only
# prints after every tenant drained).
SMOKE=registry-smoke
. scripts/smoke_lib.sh

ADDR=${REGISTRY_SMOKE_ADDR:-127.0.0.1:18096}

put_json() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X PUT -H 'Content-Type: application/json' -d "$2" "$1"
    else
        wget -qO- --method=PUT --header='Content-Type: application/json' --body-data="$2" "$1"
    fi
}

post_json() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H 'Content-Type: application/json' -d "$2" "$1"
    else
        wget -qO- --header='Content-Type: application/json' --post-data="$2" "$1"
    fi
}

smoke_build disthd-serve hdbench

echo "$SMOKE: starting disthd-serve -registry on $ADDR (pool 2, 3 boot tenants)..."
smoke_start serve disthd-serve -registry -addr "$ADDR" -pool 2 \
    -tenant 'alpha=UCIHAR,dim=64,scale=0.05,iterations=2' \
    -tenant 'beta=ISOLET,dim=96,scale=0.05,iterations=2' \
    -tenant 'gamma=DIABETES,dim=48,scale=0.05,iterations=2'

# Wait for the registry to finish boot training and start listening.
i=0
until MODELS=$(fetch "http://$ADDR/models" 2>/dev/null); do
    i=$((i + 1))
    [ "$i" -lt 100 ] || smoke_fail "server never became ready; log:" serve
    sleep 0.1
done
for id in alpha beta gamma; do
    case "$MODELS" in
    *"\"$id\""*) ;;
    *)
        smoke_fail "GET /models is missing boot tenant $id: $MODELS" ;;
    esac
done

# Mixed-workload traffic in both wire formats: hdbench installs t0..t2
# over PUT /t/{id} (now 6 tenants through the 2-slot pool) and sprays
# /t/{id}/predict_batch, retrying 429 backpressure — zero drops allowed.
for wire in json binary; do
    echo "$SMOKE: hdbench -loadgen -tenants 3 -http $ADDR -wire $wire..."
    "$TMP/hdbench" -loadgen -tenants 3 -http "$ADDR" -wire "$wire" \
        -dim 64 -loadgen-scale 0.05 -concurrency 4 -duration 1s ||
        smoke_fail "tenants loadgen -wire $wire FAILED; server log:" serve
done

# Six tenants through two replica slots must have churned the pool.
STATS=$(fetch "http://$ADDR/stats")
case "$STATS" in
*'"evictions":0,'*|*'"evictions":0}'*)
    smoke_fail "/stats reports zero evictions despite pool 2 < 6 tenants: $STATS" ;;
*'"evictions":'*) ;;
*)
    smoke_fail "/stats is missing the evictions gauge: $STATS" ;;
esac

# Per-tenant stats answer without waking a parked tenant.
TSTATS=$(fetch "http://$ADDR/t/alpha/stats")
case "$TSTATS" in
*'"id":"alpha"'*) ;;
*)
    smoke_fail "GET /t/alpha/stats did not answer for alpha: $TSTATS" ;;
esac

# Learner state survives eviction: install a learning tenant, feed it
# labeled samples, park it by waking other tenants through the 2-slot
# pool, and the per-tenant /stats feedback counter must (a) stay visible
# while parked and (b) continue — never reset to zero — after the wake.
echo "$SMOKE: learner park/wake continuity..."
put_json "http://$ADDR/t/lrn" \
    '{"demo":"DIABETES","dim":48,"scale":0.05,"iterations":2,"learn":true,"seed":7}' >/dev/null
TSTATS=$(fetch "http://$ADDR/t/lrn/stats")
FEATS=$(printf '%s' "$TSTATS" | sed -n 's/.*"features":\([0-9]*\).*/\1/p')
ROW=$(awk -v n="$FEATS" 'BEGIN{s="0";for(i=1;i<n;i++)s=s",0";print s}')
i=0
while [ "$i" -lt 5 ]; do
    post_json "http://$ADDR/t/lrn/learn" "{\"x\":[$ROW],\"label\":0}" >/dev/null
    i=$((i + 1))
done
# Two wakes of other learning tenants cycle the 2-slot pool, parking lrn
# (a zero row with label 0 is valid feedback for any tenant shape).
for id in t0 t1; do
    TS=$(fetch "http://$ADDR/t/$id/stats")
    F=$(printf '%s' "$TS" | sed -n 's/.*"features":\([0-9]*\).*/\1/p')
    R=$(awk -v n="$F" 'BEGIN{s="0";for(i=1;i<n;i++)s=s",0";print s}')
    post_json "http://$ADDR/t/$id/learn" "{\"x\":[$R],\"label\":0}" >/dev/null
done
TSTATS=$(fetch "http://$ADDR/t/lrn/stats")
case "$TSTATS" in
*'"resident":false'*) ;;
*)
    smoke_fail "lrn still resident after two wakes through pool 2: $TSTATS" ;;
esac
case "$TSTATS" in
*'"feedback":5'*) ;;
*)
    smoke_fail "parked /t/lrn/stats lost the learner gauges: $TSTATS" ;;
esac
# One more feedback sample wakes lrn; the counter continues at 6.
post_json "http://$ADDR/t/lrn/learn" "{\"x\":[$ROW],\"label\":0}" >/dev/null
TSTATS=$(fetch "http://$ADDR/t/lrn/stats")
case "$TSTATS" in
*'"feedback":6'*) ;;
*)
    smoke_fail "learner feedback counter reset across park/wake: $TSTATS" ;;
esac

# DELETE drains and removes: gamma must disappear from /models.
echo "$SMOKE: DELETE /t/gamma..."
if command -v curl >/dev/null 2>&1; then
    curl -fsS -X DELETE "http://$ADDR/t/gamma" >/dev/null
else
    wget -qO- --method=DELETE "http://$ADDR/t/gamma" >/dev/null
fi
MODELS=$(fetch "http://$ADDR/models")
case "$MODELS" in
*'"gamma"'*)
    smoke_fail "gamma still listed after DELETE: $MODELS" ;;
esac

smoke_drain serve
echo "$SMOKE: OK (3 boot + 4 PUT tenants, JSON+binary learn+predict traffic, evictions observed, learner survives park/wake, per-tenant stats, DELETE drain, clean SIGTERM)"
