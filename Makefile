GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-race vet bench bench-all bench-history fuzz-smoke ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Race-hardened verification: full build, the whole test suite under the race
# detector with shuffled test order, and vet. This is the gate for changes to
# the parallel solver and the experiment fan-out.
test-race:
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# The solver/pipeline/profiling/simulator/server/store benchmarks that rewrite
# BENCH_milp.json, BENCH_bound.json, BENCH_pipeline.json, BENCH_profile.json,
# BENCH_sim.json, BENCH_serve.json, BENCH_taskgraph.json and BENCH_store.json:
# serial MILP (warm vs cold inline), parallel MILP, the analytic dual bound
# (branch-and-bound nodes with the Li–Yao–Yuan bound on vs off), the
# artifact-store replay, recorded-vs-per-mode profile collection, the
# compiled simulator kernel vs the reference interpreter (a benchmark of
# internal/sim, where that test-only oracle lives), the optimization
# server under concurrent load (cold store vs warm), the multi-core
# task-graph solve with serial-vs-parallel schedule execution by the
# reference multi-core simulator (a benchmark of internal/sim, beside that
# simulator), and the sharded-store scenario matrix (a benchmark of
# internal/pipeline: binary vs JSON warm reads, zero-copy mmap vs copying
# reads, replay over a live mapping, batched vs plain puts, pooled replay
# allocations). bench-all runs everything.
bench:
	$(GO) test -run '^$$' -bench '^(BenchmarkMILPSerial|BenchmarkMILPParallel|BenchmarkMILPAnalyticBound|BenchmarkPipelineColdVsWarm|BenchmarkProfileCollect|BenchmarkServeLatency|BenchmarkServeThroughput)$$' -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkSimCompiledKernel$$' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench '^BenchmarkTaskGraphSolve$$' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench '^BenchmarkStoreScenarioMatrix$$' -benchmem ./internal/pipeline

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing pass over every artifact and request decoder, and over the
# voltage inversion against its reference bisection. Each target gets a few
# seconds of coverage-guided input on top of its checked-in corpus; any
# crasher it finds becomes a regression seed under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime=10s ./internal/schedfile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecording$$' -fuzztime=10s ./internal/schedfile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecordingBinary$$' -fuzztime=10s ./internal/schedfile
	$(GO) test -run '^$$' -fuzz '^FuzzLoadGraphSpec$$' -fuzztime=10s ./internal/schedfile
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=10s ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzVoltage$$' -fuzztime=10s ./internal/volt

# The PR gate: vet, full build, the whole test suite, the race detector over
# the packages with real concurrency (pipeline singleflight and concurrent
# store Puts over the shard-directory cache and buffer pools, experiment
# fan-out including the multi-core machine pool, parallel branch-and-bound,
# concurrent replay of shared recordings, the multi-core scheduler-simulator
# and HEFT placement, and the optimization server's flight table and worker
# pool), and the perf-record gate: no committed BENCH_*.json may claim a
# speedup below its floor (1.0 by default) or allocations above a committed
# allocs_ceiling — see internal/tools/benchcheck for the schema. benchcheck
# -history additionally tracks the gated metrics across runs in
# BENCH_history.jsonl (see the history target). The benchmark harness in
# perfbench/ is its own module built against this one, so it is vetted and
# tested too: a change that removes API the benchmark uses fails here. The
# first step fails when any Go file is not gofmt-formatted.
ci:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	$(GO) test -race ./internal/pipeline ./internal/exp ./internal/milp ./internal/lp ./internal/sim ./internal/profile ./internal/serve ./internal/core ./internal/schedfile ./internal/workloads ./internal/analytic
	$(GO) run ./internal/tools/benchcheck

# benchcheck in history mode: the usual floor/ceiling gate plus a comparison
# of every gated metric against the previous BENCH_history.jsonl entry (10%
# slack); a passing run appends the new entry as the next baseline.
bench-history:
	$(GO) run ./internal/tools/benchcheck -history
