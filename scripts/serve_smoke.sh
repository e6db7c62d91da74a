#!/bin/sh
# Serving smoke test: start hipaserve on a catalog graph, drive it with
# loadgen's closed-loop zipfian traffic, reload the graph mid-load, and
# assert the serving contracts end to end:
#
#   - every query succeeds (loadgen exits nonzero on any failed request,
#     including the ones racing the mid-load reloads — a reload must never
#     drop an in-flight query);
#   - the per-endpoint latency histograms and serving counters are live on
#     /metrics (validated strictly with cmd/promcheck);
#   - identical concurrent recomputes coalesce onto one Exec (loadgen
#     -coalesce-probe, then the coalesced counter is value-asserted);
#   - the served version gauge reflects the reloads applied;
#   - a /v1/ppr query records its queue and exec stages on
#     hipa_serve_stage_seconds.
#
# The loadgen summary line (total/qps/p50/p95/p99) is printed for the
# serving table in EXPERIMENTS.md. Set SERVE_SMOKE_OUT to save the final
# /metrics scrape. Requires curl.
set -eu

GO=${GO:-go}
# kron/4096 serves ~16k vertices: large enough that a recompute Exec spans
# tens of milliseconds, giving the coalesce probe's synchronized requests a
# wide window to pile onto one flight even when the Exec's worker pool has
# every core busy.
DIVISOR=${SERVE_SMOKE_DIVISOR:-4096}
DATASET=${SERVE_SMOKE_DATASET:-kron}
DURATION=${SERVE_SMOKE_DURATION:-5s}
WORKERS=${SERVE_SMOKE_WORKERS:-8}
OUT=${SERVE_SMOKE_OUT:-}

if ! command -v curl >/dev/null 2>&1; then
    echo "serve_smoke: curl not installed; skipping" >&2
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

echo "== hipaserve on $DATASET/$DIVISOR =="
"$BIN/hipaserve" -dataset "$DATASET" -divisor "$DIVISOR" \
    -listen 127.0.0.1:0 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# Poll the log for the bound URL (printed once the listener is up).
i=0
URL=""
while [ $i -lt 100 ]; do
    URL=$(sed -n 's|^hipaserve: serving \(http://.*\)$|\1|p' "$WORK/serve.log" | head -1)
    [ -n "$URL" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve_smoke: hipaserve exited during startup" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
[ -n "$URL" ] || { echo "serve_smoke: no serving URL after 10s" >&2; cat "$WORK/serve.log" >&2; exit 1; }

HEALTH=$(curl -fsS "$URL/healthz")
[ "$HEALTH" = "ok" ] || { echo "serve_smoke: /healthz said '$HEALTH'" >&2; exit 1; }

echo "== closed-loop load ($DURATION, $WORKERS workers) with mid-load reloads =="
"$BIN/loadgen" -url "$URL" -duration "$DURATION" -workers "$WORKERS" \
    >"$WORK/loadgen.log" 2>&1 &
LOAD_PID=$!

# Two reloads while the load is running: each applies a mutation batch,
# patches the artifact, warm re-ranks, and swaps the snapshot. curl -f makes
# a non-200 reload fail the smoke; loadgen's exit status catches any query
# the swap might have dropped.
sleep 1
for r in 1 2; do
    printf '+ 1 2\n+ 3 4\n+ 5 6\n- 1 2\ncommit\n' | curl -fsS -X POST --data-binary @- \
        "$URL/v1/admin/reload" >"$WORK/reload$r.json" || {
        echo "serve_smoke: reload $r failed" >&2
        cat "$WORK/reload$r.json" "$WORK/serve.log" >&2
        exit 1
    }
    grep -q '"to_version": '"$r" "$WORK/reload$r.json" || {
        echo "serve_smoke: reload $r did not reach version $r" >&2
        cat "$WORK/reload$r.json" >&2
        exit 1
    }
    sleep 1
done

if ! wait "$LOAD_PID"; then
    echo "serve_smoke: queries failed during the load (a reload dropped in-flight traffic?)" >&2
    cat "$WORK/loadgen.log" >&2
    exit 1
fi
grep 'loadgen: total=' "$WORK/loadgen.log"
grep -q 'errors=0' "$WORK/loadgen.log" || {
    echo "serve_smoke: loadgen reported errors" >&2
    cat "$WORK/loadgen.log" >&2
    exit 1
}

echo "== coalesce probe =="
# The probe releases 16 identical recomputes at once; whether a given
# request joins the in-flight Exec or starts the next one depends on
# goroutine scheduling under a fully busy worker pool, so allow a few
# rounds before declaring coalescing dead.
attempt=1
while :; do
    "$BIN/loadgen" -url "$URL" -coalesce-probe 16 >"$WORK/probe.log" 2>&1 || {
        echo "serve_smoke: coalesce probe failed" >&2
        cat "$WORK/probe.log" >&2
        exit 1
    }
    COALESCED=$(curl -fsS "$URL/metrics" | awk '/^hipa_serve_exec_coalesced_total/ { s += $2 } END { print s+0 }')
    [ "$COALESCED" -gt 0 ] && break
    if [ $attempt -ge 5 ]; then
        echo "serve_smoke: no recompute coalesced after $attempt probes of 16" >&2
        cat "$WORK/probe.log" >&2
        exit 1
    fi
    attempt=$((attempt + 1))
done
grep 'loadgen: total=' "$WORK/probe.log"
echo "coalesced recomputes after probe: $COALESCED"

echo "== ppr query =="
curl -fsS "$URL/v1/ppr?seeds=1&k=3" >"$WORK/ppr.json" || {
    echo "serve_smoke: /v1/ppr failed" >&2
    cat "$WORK/ppr.json" "$WORK/serve.log" >&2
    exit 1
}

echo "== metrics validation =="
curl -fsS "$URL/metrics" -o "$WORK/metrics.prom"
# Strict exposition check: per-endpoint latency histograms, request
# counters, and the serving families must all be present.
"$BIN/promcheck" -require \
    'hipa_http_request_seconds=endpoint:rank','hipa_http_request_seconds=endpoint:topk','hipa_http_request_seconds=endpoint:neighbors','hipa_http_request_seconds=endpoint:reload','hipa_http_requests_total=endpoint:rank','hipa_serve_execs_total','hipa_serve_exec_coalesced_total','hipa_serve_reloads_total','hipa_serve_graph_version','hipa_serve_exec_wait_seconds','hipa_prep_cache_misses_total','hipa_serve_stage_seconds=endpoint:ppr','hipa_serve_stage_seconds=stage:queue','hipa_serve_stage_seconds=stage:exec' \
    <"$WORK/metrics.prom"

# Value assertions (promcheck checks presence, not values): the probe loop
# already proved the coalesced counter positive; here the version gauge
# must show both reloads.
awk -F' ' '/^hipa_serve_graph_version/ { if ($2+0 == 2) found=1 }
    END { exit found ? 0 : 1 }' "$WORK/metrics.prom" || {
    echo "serve_smoke: version gauge does not show both reloads" >&2
    grep '^hipa_serve_graph_version' "$WORK/metrics.prom" >&2
    exit 1
}

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

if [ -n "$OUT" ]; then
    cp "$WORK/metrics.prom" "$OUT"
    echo "saved metrics snapshot to $OUT"
fi
echo "serve smoke: ok (0 query errors across 2 mid-load reloads; recompute coalescing live)"
