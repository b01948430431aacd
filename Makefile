# Canonical repo checks. `make check` is the gate every change must pass:
# vet + build + the full test suite under the race detector (the
# concurrent pipeline is only trustworthy race-clean) + the allocation
# pins the race pass skips + the docs link checker (relative links in
# *.md must resolve).

GO ?= go

.PHONY: check vet build test test-race alloc linkcheck metricscheck wirecompat expgolden fuzz paper bench bench-pipeline bench-profile bench-e2e serve

check: vet build test-race alloc linkcheck metricscheck wirecompat

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Steady-state allocation pins. They are `//go:build !race` (the race
# detector instruments allocations and drops pooled values), so the race
# pass above skips them.
alloc:
	$(GO) test -count=1 -run 'AllocFree|ZeroAlloc' ./...

# Coverage-guided fuzz smoke over the wire codecs, the /v1/process,
# /v1/infer and /v1/matvec handlers, the envelope decoder (fast path against strict JSON,
# whole and split into reads at any offsets) and the
# session NDJSON stream (seed corpora in internal/server/testdata/fuzz). Each
# target needs its own invocation: -fuzz accepts exactly one match.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeImage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzProcessRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzInferRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzMatVecRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzEnvelopeDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzEnvelopeStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSessionFrames$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime $(FUZZTIME)

# Fail on broken relative links in the repo's markdown files.
linkcheck:
	$(GO) run ./cmd/linkcheck

# Fail when docs/OBSERVABILITY.md documents a metric series that a live
# /metrics scrape does not export (the linkcheck pattern, for metrics).
metricscheck:
	$(GO) run ./cmd/metricscheck

# Wire-compatibility gate: the committed golden bodies under
# internal/server/testdata/wire/ must keep strict-decoding into the
# current v1 types (docs/API.md#compatibility).
wirecompat:
	$(GO) test ./internal/server -run '^TestWireCompat$$' -count 1

# Experiments oracle: a fresh `lightator-bench -exp all -profile smoke`
# (figures, Table 1 with its training and photonic accuracy, ablations)
# must match the committed output byte for byte. Training and the
# photonic evaluation are deterministic at any worker count.
EXP_GOLDEN = cmd/lightator-bench/testdata/exp-all-smoke.golden
expgolden:
	$(GO) run ./cmd/lightator-bench -exp all -profile smoke > .expgolden.out
	diff -u $(EXP_GOLDEN) .expgolden.out
	rm -f .expgolden.out

# Regenerate the continuously-verified paper-claims table (markdown;
# exits non-zero on drift). CI uploads this as the paper-claims artifact.
paper:
	$(GO) run ./cmd/lightator-bench -paper

# Microbenchmarks (one pass; raise -benchtime for stable numbers).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Throughput trajectory of the batched paths only.
bench-pipeline:
	$(GO) test -bench 'MatVecBatch|Pipeline' -run '^$$' .

# CPU + allocation profiles of the pipeline, per-kernel and per-model
# microbenchmarks, so the next perf change starts from a pprof, not a
# guess (docs/PERF.md explains how to read them):
#   go tool pprof cpu.pprof / go tool pprof -sample_index=alloc_objects mem.pprof
bench-profile:
	$(GO) test -bench 'Pipeline|KernelApply|InferApply' -run '^$$' -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof + mem.pprof (go tool pprof <file>)"

# End-to-end loopback benchmark of lightator-serve (bench/README.md):
# every BENCHMARK.json workload by default; narrow it with e.g.
#   make bench-e2e BENCH_FLAGS='--workload infer-plane --seconds 9 --trace 0'
bench-e2e:
	bash bench/run.sh $(BENCH_FLAGS)

# Run the HTTP serving layer locally (docs/SERVER.md). Override flags:
#   make serve SERVE_FLAGS='-addr :9090 -fidelity physical-noisy'
serve:
	$(GO) run ./cmd/lightator-serve $(SERVE_FLAGS)
