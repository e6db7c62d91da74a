#!/bin/sh
# Telemetry smoke test: write a run report and a trace with the real CLI,
# then start the CLIs with -metrics-addr, scrape /metrics and /healthz over
# HTTP *while the run is in flight*, and validate the exposition with the
# strict parser (cmd/promcheck).
#
# Three stages:
#   1. hipapr -stats -trace against a generated graph — the report must carry
#      the per-iteration detail and the trace the prep-stage and superstep
#      spans.
#   2. hipapr -repeat against the same graph — a long serving loop that is
#      scraped mid-run for the HiPa superstep/prep-stage/cache/arena series,
#      then killed (the smoke never waits for 3000 executions).
#   3. hipabench -exp table2 — one process running all five engines; the
#      scrape loop polls until every engine's superstep histogram is live on
#      /metrics, still mid-invocation thanks to -repeat.
#
# Set TELEMETRY_SMOKE_OUT to save the final all-engine scrape (CI uploads it
# as the metrics artifact). Stages 2 and 3 require curl.
set -eu

GO=${GO:-go}
DIVISOR=${TELEMETRY_SMOKE_DIVISOR:-16384}
OUT=${TELEMETRY_SMOKE_OUT:-}

WORK=$(mktemp -d)
PR_PID=""
BENCH_PID=""
cleanup() {
    [ -n "$PR_PID" ] && kill "$PR_PID" 2>/dev/null || true
    [ -n "$BENCH_PID" ] && kill "$BENCH_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

BIN="$WORK/bin"
$GO build -o "$BIN/" ./cmd/hipagen ./cmd/hipapr ./cmd/hipabench ./cmd/promcheck
# A 4x larger graph than the bench stage, so stage 2's scraper gets a
# multi-second window.
"$BIN/hipagen" -out "$WORK/g.bin" -dataset journal -divisor 4096

echo "== stage 1: hipapr -stats -trace =="
"$BIN/hipapr" -graph "$WORK/g.bin" -iters 4 -top 0 \
    -stats "$WORK/s.json" -trace "$WORK/t.json" >"$WORK/stats.log" 2>&1 \
    || { cat "$WORK/stats.log" >&2; exit 1; }
grep -q '"iterations_detail"' "$WORK/s.json" \
    || { echo "telemetry_smoke: run report has no iterations_detail" >&2; exit 1; }
for span in prep:fingerprint prep:partition prep:layout scatter gather; do
    grep -q "\"name\":\"$span\",\"ph\":\"X\"" "$WORK/t.json" \
        || { echo "telemetry_smoke: trace has no $span span" >&2; exit 1; }
done
echo "hipapr report and trace: ok"

if ! command -v curl >/dev/null 2>&1; then
    echo "telemetry_smoke: curl not installed; skipping the scrape stages" >&2
    exit 0
fi

# wait_url LOGFILE SED_PATTERN: poll the log until the CLI prints its bound
# telemetry URL (the listener is bound before any heavy work, so this is
# quick), echo the base URL.
wait_url() {
    _log=$1; _pat=$2; _i=0
    while [ $_i -lt 100 ]; do
        _url=$(sed -n "$_pat" "$_log" 2>/dev/null | head -1)
        if [ -n "$_url" ]; then
            echo "$_url"
            return 0
        fi
        _i=$((_i + 1))
        sleep 0.1
    done
    echo "telemetry_smoke: no telemetry URL in $_log after 10s" >&2
    cat "$_log" >&2
    return 1
}

echo "== stage 2: hipapr -repeat, scraped mid-run =="
# A deep repeat loop gives the scraper a multi-second window; the process is
# killed as soon as the scrape passes, so the happy path stays fast.
"$BIN/hipapr" -graph "$WORK/g.bin" -repeat 200000 -iters 4 -top 0 \
    -metrics-addr 127.0.0.1:0 >"$WORK/hipapr.log" 2>&1 &
PR_PID=$!
URL=$(wait_url "$WORK/hipapr.log" 's|^telemetry  : serving \(http://[^/]*\)/metrics.*|\1|p')

HEALTH=$(curl -fsS "$URL/healthz")
[ "$HEALTH" = "ok" ] || { echo "telemetry_smoke: /healthz said '$HEALTH'" >&2; exit 1; }

# Poll until the first execution has landed its series (tiny graph — fast),
# then validate the full exposition plus the required families strictly.
i=0
while :; do
    if curl -fsS "$URL/metrics" 2>/dev/null | "$BIN/promcheck" \
        -require 'hipa_superstep_seconds=engine:HiPa','hipa_phase_seconds=phase:scatter','hipa_residual','hipa_iterations_total','hipa_prep_stage_seconds=stage:partition','hipa_prep_cache_misses_total','hipa_execbuf_arenas_created_total','hipa_execbuf_arenas_outstanding' \
        >/dev/null 2>"$WORK/promcheck.err"; then
        break
    fi
    if ! kill -0 "$PR_PID" 2>/dev/null; then
        echo "telemetry_smoke: hipapr exited before the scrape succeeded" >&2
        cat "$WORK/hipapr.log" "$WORK/promcheck.err" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ $i -gt 300 ]; then
        echo "telemetry_smoke: hipapr series not live after 60s" >&2
        cat "$WORK/promcheck.err" >&2
        exit 1
    fi
    sleep 0.2
done
curl -fsS "$URL/runs" | grep '"runs"' >/dev/null || { echo "telemetry_smoke: /runs malformed" >&2; exit 1; }
kill "$PR_PID" 2>/dev/null || true
wait "$PR_PID" 2>/dev/null || true
PR_PID=""
echo "hipapr mid-run scrape: ok"

echo "== stage 3: hipabench table2, all five engines =="
"$BIN/hipabench" -exp table2 -divisor "$DIVISOR" -iters 2 -repeat 5 \
    -metrics-addr 127.0.0.1:0 >/dev/null 2>"$WORK/hipabench.log" &
BENCH_PID=$!
URL=$(wait_url "$WORK/hipabench.log" 's|^hipabench: telemetry: serving \(http://[^/]*\)/metrics.*|\1|p')

REQUIRE='hipa_superstep_seconds=engine:HiPa'
REQUIRE="$REQUIRE,hipa_superstep_seconds=engine:p-PR"
REQUIRE="$REQUIRE,hipa_superstep_seconds=engine:GPOP"
REQUIRE="$REQUIRE,hipa_superstep_seconds=engine:v-PR"
REQUIRE="$REQUIRE,hipa_superstep_seconds=engine:Polymer"
REQUIRE="$REQUIRE,hipa_prep_stage_seconds,hipa_prep_cache_hits_total,hipa_execbuf_arenas_reused_total"
i=0
while :; do
    if curl -fsS "$URL/metrics" -o "$WORK/metrics.prom" 2>/dev/null \
        && "$BIN/promcheck" -require "$REQUIRE" <"$WORK/metrics.prom" >"$WORK/promcheck.out" 2>"$WORK/promcheck.err"; then
        break
    fi
    if ! kill -0 "$BENCH_PID" 2>/dev/null; then
        echo "telemetry_smoke: hipabench exited before all five engines were scrapeable" >&2
        cat "$WORK/hipabench.log" "$WORK/promcheck.err" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ $i -gt 600 ]; then
        echo "telemetry_smoke: five-engine series not live after 120s" >&2
        cat "$WORK/promcheck.err" >&2
        exit 1
    fi
    sleep 0.2
done
cat "$WORK/promcheck.out"
kill "$BENCH_PID" 2>/dev/null || true
wait "$BENCH_PID" 2>/dev/null || true
BENCH_PID=""

if [ -n "$OUT" ]; then
    cp "$WORK/metrics.prom" "$OUT"
    echo "saved metrics snapshot to $OUT"
fi
echo "telemetry smoke: ok (all five engines live on /metrics mid-run)"
