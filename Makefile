# Developer entry points. `make check` is the gate every change must pass:
# formatting, vet, build, the full test suite, the race detector over the
# packages with concurrency (the par worker layer, the parallel tensor/nn
# kernels, the overlapped core pipeline, the obs collector, the
# multi-stream serving layer, the experiments harness's suite-level worker
# pool and the benchmark's load drivers), and a short coverage-guided fuzz
# pass over the bitstream decoders.

GO ?= go
RACE_PKGS := ./internal/par ./internal/core ./internal/tensor ./internal/nn ./internal/obs ./internal/batch ./internal/serve ./internal/contentcache ./internal/shard ./internal/qos ./internal/adapt ./internal/experiments ./bench
FUZZTIME ?= 5s

.PHONY: check fmt-check vet build test race loc bench suite fuzz-smoke bench-smoke serve-smoke batch-smoke quant-smoke cache-smoke chaos-smoke gate-smoke qos-smoke adapt-smoke

check: fmt-check vet build test race fuzz-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Non-test Go lines (wc -l) per serving-core package, the serving-core
# total, and everything outside bench/ — the numbers a simplicity PR quotes
# before and after.
SERVING_CORE := core segment nn tensor serve batch contentcache qos shard
loc:
	@for p in $(SERVING_CORE); do \
		printf '%-14s %6d\n' $$p $$(cat $$(ls internal/$$p/*.go | grep -v _test.go) | wc -l); \
	done
	@printf '%-14s %6d\n' serving-core $$(cat $$(ls $(addprefix internal/,$(addsuffix /*.go,$(SERVING_CORE))) | grep -v _test.go) | wc -l)
	@printf '%-14s %6d\n' all-but-bench $$(cat $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*') | wc -l)

# Short coverage-guided runs of the decoder fuzz targets; regressions the
# fuzzer has found live in internal/codec/testdata/fuzz and are replayed by
# plain `go test` as well.
fuzz-smoke:
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzStreamDecoder$$' -fuzztime $(FUZZTIME)

# Serial-vs-parallel kernel and pipeline micro-benchmarks (EXPERIMENTS.md
# "Parallel compute layer" section).
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/tensor ./internal/nn ./internal/core

# One cheap end-to-end benchsuite run (JSON, including the per-stage
# profile) to catch wiring breakage without the cost of the full suite.
bench-smoke:
	$(GO) run ./cmd/benchsuite -frames 8 -res 64x48 -json fig3a

# End-to-end self-test of the multi-stream serving layer: load generator
# plus one chunk over loopback HTTP, clean drain. Exit 0 on success.
serve-smoke:
	$(GO) run ./cmd/vrserve -smoke

# The same self-test with NN-S refinement trained at startup, so the
# multi-session batched leg has NN-S work to fuse and checks its masks
# bit-identical to the unbatched reference.
batch-smoke:
	$(GO) run ./cmd/vrserve -smoke -refine

# The quant leg: -quant compiles the trained NN-S to the int8 execution
# tier and serves it with residual-driven block skipping. The smoke gates
# the served B-frame F-score within 0.5 points of the float reference and
# checks the per-block skip counters surface in server-wide /metrics.
quant-smoke:
	$(GO) run ./cmd/vrserve -smoke -refine -quant

# The content-cache leg: -cache-mb shares anchor and B-frame masks across
# sessions serving bit-identical chunks. The smoke serves four viewers of
# one content through a cached server, gates every mask byte-identical to
# the uncached reference, and checks the hit/miss counters in /metrics.
cache-smoke:
	$(GO) run ./cmd/vrserve -smoke -refine -cache-mb 64

# Short chaos soak under the race detector: concurrent sessions fed 20%
# corrupted chunks through the fault injector; healthy streams must stay
# bit-identical to a clean run and poisoned sessions must resync or close
# with a classified error. (The soak also runs as part of `make race`.)
chaos-smoke:
	$(GO) test -race ./internal/serve -run '^TestChaosSoak$$' -count 1 -v

# Multi-process sharding self-test: vrgate spawns two real vrserve
# processes, streams sessions through the gateway, kills one backend
# mid-stream, and checks every session's masks byte-identical to a
# single-node reference with zero client-visible errors.
gate-smoke:
	@mkdir -p bin
	$(GO) build -o bin/vrserve ./cmd/vrserve
	$(GO) build -o bin/vrgate ./cmd/vrgate
	./bin/vrgate -smoke -vrserve ./bin/vrserve

# The QoS-ladder leg: -qos on serves B-frames on the adaptive degradation
# ladder (full -> refine -> recon -> skip) with premium/free session
# classes. The smoke overloads a ladder-enabled server open-loop, checks
# the cheap rungs fired and their counters surface in /metrics, and pins
# the ?class= session-open parameter (echoed back; unknown values 400).
qos-smoke:
	$(GO) run ./cmd/vrserve -smoke -refine -qos on

# The online-adaptation leg: -adapt on fine-tunes a private NN-S clone per
# session from its own anchor pseudo-labels in serving idle gaps. The smoke
# pins both directions: an unreachable promotion bar serves bit-identical
# to the no-adapt reference while its shadow counters surface in /metrics,
# and forced promotions climb the promotions counter and weights-version
# gauge while frames keep being served across the swaps.
adapt-smoke:
	$(GO) run ./cmd/vrserve -smoke -adapt on

# Regenerate the paper's tables and figures.
suite:
	$(GO) run ./cmd/benchsuite
