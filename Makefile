GO ?= go

.PHONY: all build fmt vet asm-vet test race race-purego bench-module bench bench-json benchdiff verify

all: verify

build:
	$(GO) build ./...

# Fails (with the offending files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Vet both build-tag universes: the default set (includes the amd64/arm64
# assembly kernels, so asmdecl checks the .s files against their Go
# declarations) and the purego set (scalar-only tree some downstream
# builds ship). A tag-gated file that only compiles under one set would
# otherwise dodge vet entirely.
asm-vet:
	$(GO) vet ./...
	$(GO) vet -tags purego ./...

test:
	$(GO) test ./...

# The packages with lock-free/pooled/concurrent state get a race pass; the
# full tree under -race blows the per-package test timeout on 1-core CI
# boxes. cmd/adarnet-serve rides along for the HTTP-boundary and
# fault-injection tests.
RACE_PKGS = ./internal/obs ./internal/tensor ./internal/autodiff ./internal/nn ./internal/interp ./internal/serve/... ./internal/core/... ./internal/jobs ./cmd/adarnet-serve

race:
	$(GO) test -race $(RACE_PKGS)

# The scalar-fallback universe must pass the same race sweep: `purego`
# strips the assembly kernels, so this is the tree that runs on
# architectures without a SIMD kernel (and the reference the vector
# kernels are audited against).
race-purego:
	$(GO) test -tags purego -race $(RACE_PKGS)

# benchmark/ is its own module (`replace adarnet => ../`) that `go build
# ./...` and `go test ./...` at the root never reach; it reads
# serve.EngineStats fields and calls serve.New, so vet and test it here or a
# change to those breaks it unseen.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Kernel microbenchmarks (also available as `adarnet-bench -exp micro`).
# BenchmarkHistogramRecord guards the telemetry hot path: the bar is
# ≤ ~50 ns/op with 0 allocs/op (DESIGN.md §10).
bench:
	$(GO) test ./internal/obs ./internal/tensor ./internal/nn ./internal/serve/... ./internal/core/... -run '^$$' -bench . -benchmem

# Machine-readable benchmark snapshots (BENCH_gemm.json, BENCH_serve.json,
# BENCH_infer32.json, BENCH_cache.json, BENCH_jobs.json, BENCH_trace.json)
# for regression gating with benchdiff.
bench-json:
	$(GO) run ./cmd/adarnet-bench -exp micro,gemm,serve,infer32,cache,jobs,trace -json-dir .

# Compare two benchmark snapshots; gate on a metric with e.g.
#   make benchdiff OLD=BENCH_infer32.old.json NEW=BENCH_infer32.json \
#     BENCHDIFF_FLAGS='-metric batches.1.speedup -max-regress 10'
# or gate the prediction cache's skewed-replay win with
#   make benchdiff OLD=BENCH_cache.old.json NEW=BENCH_cache.json \
#     BENCHDIFF_FLAGS='-metric hit_ratio_0.9.speedup -max-regress 10'
# or gate the job service's submit-to-done and crash-resume overheads with
#   make benchdiff OLD=BENCH_jobs.old.json NEW=BENCH_jobs.json \
#     BENCHDIFF_FLAGS='-metric job.overhead_pct -lower-better -max-regress 10'
# or gate the tracing-off hot path (span tracing must stay ≤2% overhead) with
#   make benchdiff OLD=BENCH_trace.old.json NEW=BENCH_trace.json \
#     BENCHDIFF_FLAGS='-metric off.ns_per_op -lower-better -max-regress 2'
# or gate the SIMD GEMM kernel's win over the scalar fallback (large-shape
# speedup must not silently erode) with
#   make benchdiff OLD=BENCH_gemm.old.json NEW=BENCH_gemm.json \
#     BENCHDIFF_FLAGS='-metric large_speedup -max-regress 10'
OLD ?= BENCH_infer32.old.json
NEW ?= BENCH_infer32.json
BENCHDIFF_FLAGS ?=
benchdiff:
	$(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS) $(OLD) $(NEW)

verify: fmt asm-vet build test bench-module race race-purego
	@echo verify OK
