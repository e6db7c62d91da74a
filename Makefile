GO ?= go

# BENCH_pagerank.json was generated with these settings; the gate refuses to
# compare measurements taken at a different shape.
BENCH_BASELINE ?= BENCH_pagerank.json
BENCH_DIVISOR  ?= 1024
BENCH_DATASET  ?= journal

.PHONY: all build test vet staticcheck race race-prep procs purego bench-prep ci bench bench-module bench-gate bench-baseline smoke dynamic-smoke telemetry-smoke serve-smoke batch-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is installed (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest) and is skipped
# otherwise so `make ci` works in a bare toolchain-only environment.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Race-enabled test run; the simulated scheduler and the telemetry recorder
# are exercised concurrently by every engine test, so this is the main
# concurrency gate.
race:
	$(GO) test -race ./...

# The lazy-CSC / fingerprint hammer tests, explicitly under -race: these are
# the regression tests for the graph-layer publication races and must run
# with the detector even when the full race suite is trimmed.
race-prep:
	$(GO) test -race -run 'Concurrent|Race' ./internal/graph/ ./internal/engines/...

# Results never depend on core count: the whole suite runs at one and at
# eight Go procs, whatever the host's core count.
procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=8 $(GO) test -count=1 ./...

# The scalar kernels under the same goldens: vet and the engine,
# algorithms, layout, serve and root-package tests with the AVX2 kernels
# compiled out (-tags purego), and a vet of the arm64 build, so the fallback keeps
# compiling where the assembly does not exist. The last step fails if the
# arm64 compiler fused a multiply and an add anywhere in the module: a fused
# multiply-add rounds once, so ranks, generated graphs and modelled seconds
# would differ from amd64's. Round the product with an explicit conversion
# instead (float32(d*acc) + redis).
purego:
	$(GO) vet -tags purego ./...
	$(GO) test -tags purego -count=1 ./internal/engines/... ./internal/algorithms/ ./internal/layout/ ./internal/serve/ .
	GOARCH=arm64 $(GO) vet ./...
	@fused=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./... 2>&1 | grep -E 'FN?M(ADD|SUB)'); \
	if [ -n "$$fused" ]; then \
		echo "$$fused"; \
		echo "purego: fused multiply-adds in the arm64 build"; \
		exit 1; \
	fi

# One-iteration pass over the Prepare benchmarks so the parallel build paths
# (scatter-and-row-sort CSR, CSC, fingerprint, partition+layout) are exercised
# in CI, over the HGR1 file load and save, and over the gather, scatter and
# rank-update benchmarks so the inter pull, the intra pull and the rank
# update compile and run, in the default build (both kernel sets) and in the
# purego build, then over the blocked scatter and the width-1 personalized
# query (BenchmarkBPPRQuery, the sparse start's push and latch).
KERNEL_BENCH = 'BenchmarkGatherPartition|BenchmarkScatterPartition|BenchmarkUpdateRanks'
bench-prep:
	$(GO) test -run '^$$' -bench 'BenchmarkPrepare|BenchmarkLoadBinary|BenchmarkSaveBinary' -benchtime 1x ./internal/graph/ .
	$(GO) test -run '^$$' -bench $(KERNEL_BENCH) -benchtime 1x ./internal/engines/common/
	$(GO) test -tags purego -run '^$$' -bench $(KERNEL_BENCH) -benchtime 1x ./internal/engines/common/
	$(GO) test -run '^$$' -bench 'BenchmarkBlockScatter' -benchtime 1x ./internal/algorithms/
	$(GO) test -run '^$$' -bench 'BenchmarkBPPRQuery' -benchtime 1x ./internal/engines/bppr/

ci: vet staticcheck build race race-prep procs purego bench-prep bench bench-module smoke dynamic-smoke telemetry-smoke serve-smoke batch-smoke bench-gate

# One-iteration pass over the root benchmarks (compile-and-run validation of
# every benchmark body; not a timing run). `smoke` used to duplicate this —
# it is now the single place the root benchmarks run in CI.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . > /dev/null

# The wall-clock benchmark's own tests (tiny runs of every workload, its
# checkers and its compare verdicts). bench/ is a module of its own, so the
# root `go test ./...` does not reach it.
bench-module:
	cd bench && $(GO) test ./...

# End-to-end smoke: a tiny fig6 sweep through the real CLI, exercising the
# shared prep cache across the thread sweep.
smoke:
	$(GO) run ./cmd/hipabench -exp fig6 -divisor 16384 -iters 2 > /dev/null

# Dynamic-replay smoke: the incremental re-rank pipeline end to end through
# the real CLI — versioned graph, mutation stream, Advance-patched
# artifacts, warm execs — with the headline claim enforced (exit 1 unless
# the sparse warm path converges in at least 2x fewer iterations than cold).
dynamic-smoke:
	$(GO) run ./cmd/hipabench -exp dynamic -dynamic-check \
		-divisor $(BENCH_DIVISOR) > /dev/null

# Live-telemetry smoke: start the CLIs with -metrics-addr, curl /metrics and
# /healthz mid-run, and validate the Prometheus exposition (all five engines'
# superstep histograms plus prep-stage/cache/arena series) with promcheck.
# Set TELEMETRY_SMOKE_OUT=path to keep the final scrape (CI uploads it).
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Serving smoke: hipaserve on a catalog graph under loadgen's closed-loop
# zipfian traffic with mid-load reloads — zero query errors, per-endpoint
# latency histograms live on /metrics (promcheck), recompute coalescing
# counter-asserted, served-version gauge tracking the reloads. Set
# SERVE_SMOKE_OUT=path to keep the final scrape (CI uploads it).
serve-smoke:
	sh scripts/serve_smoke.sh

# Batched-PPR smoke: the modelled bytes-moved-per-query sweep with its 4x
# amortization check (hipabench -exp batch -batch-check), then a
# barrier-synchronized loadgen burst against a live hipaserve /v1/ppr queue
# asserting multi-query batches actually form — from the client's batch
# widths, the hipa_serve_ppr_batch_size histogram, and promcheck over the
# ppr metric families. Set BATCH_SMOKE_OUT=path to keep the final scrape
# (CI uploads it).
batch-smoke:
	BATCH_SMOKE_DIVISOR=$(BENCH_DIVISOR) sh scripts/batch_smoke.sh

# Allocation gate: measure the Exec allocation profile of every registered
# engine plus the dynamic-replay warm-vs-cold convergence trajectory, and
# compare against the committed baseline (exact on the zero
# allocs/iteration steady state). Regenerate the baseline with
# `make bench-baseline` after an intentional change.
bench-gate:
	$(GO) run ./cmd/hipabench -baseline $(BENCH_BASELINE) \
		-divisor $(BENCH_DIVISOR) -datasets $(BENCH_DATASET)

bench-baseline:
	$(GO) run ./cmd/hipabench -baseline $(BENCH_BASELINE) -baseline-write \
		-divisor $(BENCH_DIVISOR) -datasets $(BENCH_DATASET)

clean:
	$(GO) clean ./...
