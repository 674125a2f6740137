GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-race vet bench fuzz-smoke ci

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

# Every benchmark of every package. A benchmark that backs a wall-clock
# claim measures both sides itself and fails when its fresh ratio falls
# below the floor: warm-started vs cold MILP solves (internal/core), the
# compiled simulator kernel vs the reference interpreter (internal/sim),
# binary vs JSON and mapped vs copying artifact reads (internal/pipeline),
# recorded vs per-mode profiling (internal/profile), the warm vs cold
# deadline sweep (internal/exp) and warm vs cold serving (internal/serve).
# No benchmark writes a file, so the tree stays clean.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Short fuzzing pass over every artifact and request decoder, over the
# voltage inversion against its reference bisection, and over the simplex's
# sparse row updates against the dense reference kernel. Each target gets a few
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
	$(GO) test -run '^$$' -fuzz '^FuzzSimplexKernel$$' -fuzztime=10s ./internal/lp

# The PR gate. The first step fails when any Go file is not
# gofmt-formatted. Then vet, a full build and the whole test suite, whose
# deterministic performance claims (branch-and-bound node floors of the
# analytic bound, allocation ceilings of the warm read path) are ordinary
# tests; the race detector over the packages with real concurrency
# (pipeline singleflight and concurrent store Puts over the shard-directory
# cache and buffer pools, the experiment fan-out and its machine pool,
# parallel branch-and-bound, concurrent replay of shared recordings, HEFT placement,
# and the optimization server's flight table and worker pool). The
# benchmark harness in perfbench/ is its own module built against this one,
# so it is vetted and tested too: a change that removes API the benchmark
# uses fails here. Last, every program under examples/ runs and must exit 0,
# since go build alone only proves that they compile.
ci:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	$(GO) test -race ./internal/pipeline ./internal/exp ./internal/milp ./internal/lp ./internal/sim ./internal/profile ./internal/serve ./internal/core ./internal/schedfile ./internal/workloads ./internal/analytic
	@for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done
