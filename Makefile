# Development entry points for the capacity-planning reproduction.

GO ?= go

.PHONY: all build vet test test-short race lint-metrics bench bench-baseline bench-check bench-baseline-store bench-check-store bench-baseline-refit bench-check-refit tables figures examples clean

all: build vet lint-metrics test

# Metric-naming conventions (snake_case, counters _total, duration
# histograms _seconds) enforced at the call site; see cmd/lintmetrics.
lint-metrics:
	$(GO) run ./cmd/lintmetrics

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent paths (parallel fit workers,
# fleet runner, metric repository, obs registry/spans), plus a dedicated
# full-length pass over the pooled-workspace fit paths that -short trims
# and the kernel-equivalence oracles (sparse-lag CSS, raw-slice QR).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'Pool|Parallel|Concurrent|Oracle' ./internal/core/ ./internal/arima/ ./internal/linalg/

# One benchmark per paper table/figure plus the ablations (reduced sizes).
bench:
	$(GO) test -bench=. -benchmem ./...

# The fit hot-path benchmarks gated by the committed BENCH_PR5.json
# baseline (see cmd/benchcheck): bench-baseline rewrites it, bench-check
# compares and fails on large regressions (allocs/op strict, ns/op loose).
BENCH_GATE = ^(BenchmarkFitARIMA|BenchmarkFitSARIMAX|BenchmarkEngineRun)$$

bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -benchtime 5x -count 3 . > bench_output.txt
	$(GO) run ./cmd/benchcheck -update -baseline BENCH_PR5.json bench_output.txt

bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -benchtime 1x -count 1 . > bench_output.txt
	$(GO) run ./cmd/benchcheck -baseline BENCH_PR5.json bench_output.txt

# Sharded-store scaling gated by BENCH_PR8.json: concurrent
# PutBatch+Series throughput at 1/4/16 shards (shards-1 is the old
# single-lock store, kept in the baseline as the reference point).
STORE_BENCH_GATE = ^BenchmarkStoreParallel$$

bench-baseline-store:
	$(GO) test -run '^$$' -bench '$(STORE_BENCH_GATE)' -benchmem -benchtime 300x -count 3 ./internal/metricstore/ > bench_store_output.txt
	$(GO) run ./cmd/benchcheck -update -baseline BENCH_PR8.json \
		-note "sharded-store parallel baseline; regenerate with \`make bench-baseline-store\`, compare with \`make bench-check-store\`" \
		bench_store_output.txt

bench-check-store:
	$(GO) test -run '^$$' -bench '$(STORE_BENCH_GATE)' -benchmem -benchtime 100x -count 1 ./internal/metricstore/ > bench_store_output.txt
	$(GO) run ./cmd/benchcheck -baseline BENCH_PR8.json bench_store_output.txt

# Incremental-refit tiers gated by BENCH_PR10.json: cold grid search vs
# warm-started shrunken grid vs O(1) state advance, same series and
# candidate pool. The -ratio assertions pin the tentpole's speedups —
# warm <= 0.2x cold, advance <= 0.01x cold — and hold on any machine
# because both sides of each ratio come from the same run. The check runs
# -count 3 and benchcheck compares the means, which damps a single noisy
# run (not a burst of load that spans all three).
REFIT_BENCH_GATE = ^BenchmarkRefit(Cold|Warm|Advance)$$
REFIT_RATIOS = -ratio 'BenchmarkRefitWarm/BenchmarkRefitCold<=0.2' \
	-ratio 'BenchmarkRefitAdvance/BenchmarkRefitCold<=0.01'

bench-baseline-refit:
	$(GO) test -run '^$$' -bench '$(REFIT_BENCH_GATE)' -benchmem -benchtime 3x -count 3 . > bench_refit_output.txt
	$(GO) run ./cmd/benchcheck -update -baseline BENCH_PR10.json \
		-note "incremental-refit tier baseline; regenerate with \`make bench-baseline-refit\`, compare with \`make bench-check-refit\`" \
		$(REFIT_RATIOS) bench_refit_output.txt

bench-check-refit:
	$(GO) test -run '^$$' -bench '$(REFIT_BENCH_GATE)' -benchmem -benchtime 3x -count 3 . > bench_refit_output.txt
	$(GO) run ./cmd/benchcheck -baseline BENCH_PR10.json $(REFIT_RATIOS) bench_refit_output.txt

# Full-size reproduction of the evaluation tables (42 days, Table 1 splits).
tables:
	$(GO) run ./cmd/benchtables -table 2a
	$(GO) run ./cmd/benchtables -table 2b

figures:
	$(GO) run ./cmd/benchtables -fig 1
	$(GO) run ./cmd/benchtables -fig 2
	$(GO) run ./cmd/benchtables -fig 3
	$(GO) run ./cmd/benchtables -fig 6
	$(GO) run ./cmd/benchtables -fig 7

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/olap
	$(GO) run ./examples/oltp
	$(GO) run ./examples/thresholds
	$(GO) run ./examples/fleet
	$(GO) run ./examples/migration

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt bench_store_output.txt bench_refit_output.txt
