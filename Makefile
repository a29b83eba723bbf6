GO ?= go
# Pinned staticcheck version (matches the CI job); override to test newer
# releases.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test bench-module-test race bench bench-smoke bench-json bench-compare serve-smoke latency-smoke router-smoke pressure-smoke fmt fmt-check vet aptq-vet staticcheck ci

# Output of `make bench-json` (benchmarks as data; CI uploads it) and the
# committed baseline `make bench-compare` diffs it against.
BENCH_JSON ?= BENCH_PR8.json
BENCH_BASELINE ?= BENCH_PR8.json

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# aptqbench/ is its own Go module (the end-to-end benchmark), so the root
# `go test ./...` skips it; it compiles against infer and serve.
bench-module-test:
	$(GO) -C aptqbench test ./...

# Race-detector pass; -short skips the minute-scale harness table tests so
# the job fits CI time limits (they still run in `make test`).
race:
	$(GO) test -race -short ./...

# Full benchmark run (macro experiment benchmarks included).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# One-iteration smoke pass over the micro benchmarks (including the
# float-vs-packed pairs of packed_bench_test.go, the lockstep-vs-
# continuous scheduling pair of serve_bench_test.go and the loop-vs-
# chunked prefill pairs of prefill_bench_test.go), mirroring the CI job
# that keeps them compiling and running.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -short ./...
	$(GO) test -run='^$$' -bench='MatVec|DecodeBatch|RoPEAt|DecodeLockstep|DecodeContinuous|Prefill|PrefixCache|PrefixShare' -benchtime=1x .

# Benchmarks as data: run the tier-1 benchmark set (the same two passes as
# bench-smoke, with -benchmem) and emit $(BENCH_JSON) — a JSON map of
# benchmark name to ns/op, allocs/op, tok/s and the custom metrics — via
# cmd/benchjson. CI uploads the file as an artifact so the performance
# trajectory is diffable across PRs.
# Each pass writes to a scratch file and must succeed before conversion,
# so a failing benchmark fails the target instead of silently producing a
# truncated artifact. The macro serving pairs run 3 iterations (still
# fast; each is milliseconds) so the snapshotted tok/s numbers are less
# single-shot noisy than -benchtime=1x.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -short -benchmem ./... > $(BENCH_JSON).txt
	$(GO) test -run='^$$' -bench='MatVec|DecodeBatch|RoPEAt|DecodeLockstep|DecodeContinuous|Prefill|PrefixCache|PrefixShare' -benchtime=3x -benchmem . >> $(BENCH_JSON).txt
	$(GO) run ./cmd/benchjson < $(BENCH_JSON).txt > $(BENCH_JSON)
	@rm -f $(BENCH_JSON).txt
	@echo "wrote $(BENCH_JSON)"

# Regression guardrail: take a fresh snapshot to $(BENCH_CI) — a scratch
# path, so the committed $(BENCH_JSON) artifact is never overwritten with
# machine-local numbers — diff it against the committed $(BENCH_BASELINE)
# and fail on tok/s drops or allocs/op growth past the (deliberately
# loose — single-iteration CI numbers are noisy) threshold, or on any
# lower-is-better *_bytes residency metric growing past -bytes-threshold
# (the PrefixShareResidentBytes pair reports kv-unique-bytes, so losing
# the paged cache's prefix sharing fails this target). Catches
# step-function regressions like a hot path regrowing its per-token
# allocations or every slot holding private prefix pages again.
BENCH_CI ?= BENCH_CI.json
bench-compare:
	$(MAKE) bench-json BENCH_JSON=$(BENCH_CI)
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) $(BENCH_CI)

# End-to-end smoke of the HTTP serving front-end: build aptq-serve, start
# it, issue the same generate request twice, assert byte-identical replies
# — then once more as an SSE stream, asserting the assembled stream is
# byte-identical to the plain reply.
serve-smoke:
	./scripts/serve_smoke.sh

# CI latency gate: boot aptq-serve and drive it open-loop with
# aptq-loadgen for a few seconds of mixed streaming traffic. Fails on any
# request error or an absurd p99 TTFT; writes the p50/p99 TTFT and
# inter-token percentiles to LATENCY_CI.json (benchjson schema, uploaded
# as a CI artifact and diffable with `benchjson -compare -ms-threshold`).
latency-smoke:
	./scripts/latency_smoke.sh

# Fault-tolerance gate: three aptq-serve replicas behind aptq-router with
# seeded chaos injection on the upstream path; one replica is SIGKILLed
# mid-load. Zero client-visible errors, byte-identical replies across the
# kill, and the dead replica ejected — or the target fails. Router
# counters and latency percentiles land in ROUTER_CI.json.
router-smoke:
	./scripts/router_smoke.sh

# Memory-pressure gate: aptq-serve under a deliberately tiny KV budget
# (-kv-budget-mb 1) is overloaded with a seeded burst. Graceful
# degradation or bust: zero client-visible errors, at least one
# preemption, pool high-water within budget, zero panics. Counters land
# in PRESSURE_CI.json.
pressure-smoke:
	./scripts/pressure_smoke.sh

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own analyzers (detlint, noalloc, foreachcapture — see
# internal/analysis) run through the standard `go vet -vettool=` protocol,
# so suppression, caching and exit codes behave exactly like vet.
aptq-vet:
	$(GO) build -o bin/aptq-vet ./cmd/aptq-vet
	$(GO) vet -vettool=$(CURDIR)/bin/aptq-vet ./...

# Runs the pinned staticcheck via `go run` (uses the local binary cache;
# needs network on first use). CI runs the same version in its own job.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Mirrors .github/workflows/ci.yml (staticcheck needs network on first
# use to fetch the pinned binary; later runs hit the local cache).
ci: fmt-check vet aptq-vet staticcheck build test bench-module-test race bench-smoke bench-compare serve-smoke latency-smoke router-smoke pressure-smoke
