#!/bin/sh
# Batched-PPR smoke test, in two acts:
#
#   1. hipabench -exp batch -batch-check: the modelled bytes-moved-per-query
#      sweep over B in {1,4,16,64} through the real CLI, with the headline
#      amortization claim enforced (exit 1 unless B=16 moves at least 4x
#      fewer bytes per query than B=1).
#
#   2. hipaserve + loadgen -ppr-burst: a barrier-synchronized burst of
#      personalized-PageRank queries against /v1/ppr, asserting the request
#      queue actually coalesces them (max observed batch width > 1, both
#      from the client's view and from the hipa_serve_ppr_batch_size
#      histogram on /metrics), then one lone query that must answer in
#      under a second although the server's flush deadline is 5 s (an idle
#      graph flushes at once), with the ppr metric families validated
#      strictly by cmd/promcheck.
#
# Set BATCH_SMOKE_OUT to save the final /metrics scrape. Requires curl.
set -eu

GO=${GO:-go}
DIVISOR=${BATCH_SMOKE_DIVISOR:-1024}
# wiki/8192 preps in well under a second. The first query of a 32-query
# burst flushes alone on the idle graph; the rest pile up behind its Exec
# and form multi-query batches with a wide margin.
SERVE_DIVISOR=${BATCH_SMOKE_SERVE_DIVISOR:-8192}
SERVE_DATASET=${BATCH_SMOKE_SERVE_DATASET:-wiki}
BURST=${BATCH_SMOKE_BURST:-32}
OUT=${BATCH_SMOKE_OUT:-}

echo "== modelled bytes/query sweep (divisor $DIVISOR) =="
$GO run ./cmd/hipabench -exp batch -batch-check -divisor "$DIVISOR"

if ! command -v curl >/dev/null 2>&1; then
    echo "batch_smoke: curl not installed; skipping the serve burst" >&2
    exit 0
fi

WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

BIN="$WORK/bin"
$GO build -o "$BIN/" ./cmd/hipaserve ./cmd/loadgen ./cmd/promcheck

# A 5 s flush deadline: only the idle flush can answer the lone query below
# in time.
printf '{"batch_flush_ms": 5000, "graphs": [{"name": "%s", "dataset": "%s", "divisor": %s}]}\n' \
    "$SERVE_DATASET" "$SERVE_DATASET" "$SERVE_DIVISOR" >"$WORK/serve.json"

echo "== hipaserve on $SERVE_DATASET/$SERVE_DIVISOR (batch_flush_ms 5000) =="
"$BIN/hipaserve" -config "$WORK/serve.json" \
    -listen 127.0.0.1:0 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

i=0
URL=""
while [ $i -lt 100 ]; do
    URL=$(sed -n 's|^hipaserve: serving \(http://.*\)$|\1|p' "$WORK/serve.log" | head -1)
    [ -n "$URL" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "batch_smoke: hipaserve exited during startup" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
[ -n "$URL" ] || { echo "batch_smoke: no serving URL after 10s" >&2; cat "$WORK/serve.log" >&2; exit 1; }

echo "== ppr burst ($BURST synchronized queries) =="
# Whether a given burst lands in one flush window depends on goroutine
# scheduling, so allow a few rounds before declaring batching dead.
attempt=1
while :; do
    "$BIN/loadgen" -url "$URL" -ppr-burst "$BURST" >"$WORK/burst.log" 2>&1 || {
        echo "batch_smoke: ppr burst failed" >&2
        cat "$WORK/burst.log" "$WORK/serve.log" >&2
        exit 1
    }
    MAXB=$(sed -n 's/.*max_batch=\([0-9]*\).*/\1/p' "$WORK/burst.log" | head -1)
    [ -n "$MAXB" ] && [ "$MAXB" -gt 1 ] && break
    if [ $attempt -ge 5 ]; then
        echo "batch_smoke: no multi-query batch formed after $attempt bursts of $BURST" >&2
        cat "$WORK/burst.log" >&2
        exit 1
    fi
    attempt=$((attempt + 1))
done
grep 'loadgen: ppr_queries=' "$WORK/burst.log"

echo "== lone ppr query (flush deadline 5 s) =="
LONE=$(curl -fsS -o /dev/null -w '%{time_total}' "$URL/v1/ppr?seeds=1&k=5") || {
    echo "batch_smoke: lone ppr query failed" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}
echo "lone query answered in ${LONE}s"
awk -v t="$LONE" 'BEGIN { exit (t + 0 < 1) ? 0 : 1 }' || {
    echo "batch_smoke: a lone /v1/ppr waited ${LONE}s; an idle graph must flush at once" >&2
    exit 1
}

echo "== metrics validation =="
curl -fsS "$URL/metrics" -o "$WORK/metrics.prom"
"$BIN/promcheck" -require \
    'hipa_serve_ppr_queries_total','hipa_serve_ppr_batches_total','hipa_serve_ppr_execs_total','hipa_serve_ppr_queue_depth','hipa_serve_ppr_batch_size','hipa_serve_ppr_flush_seconds' \
    <"$WORK/metrics.prom"

# Server-side view of the same claim: the batch-size histogram's mean must
# exceed 1 query per flushed batch (promcheck checks presence, not values).
awk '/^hipa_serve_ppr_batch_size_sum/ { s = $2 }
    /^hipa_serve_ppr_batch_size_count/ { c = $2 }
    END { if (c + 0 > 0 && s / c > 1) exit 0; exit 1 }' "$WORK/metrics.prom" || {
    echo "batch_smoke: batch-size histogram mean is not > 1 query/batch" >&2
    grep '^hipa_serve_ppr_batch_size' "$WORK/metrics.prom" >&2
    exit 1
}

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

if [ -n "$OUT" ]; then
    cp "$WORK/metrics.prom" "$OUT"
    echo "saved metrics snapshot to $OUT"
fi
echo "batch smoke: ok (bytes/query gate passed; burst coalesced into multi-query batches; lone query flushed at once)"
