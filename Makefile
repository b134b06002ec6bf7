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

# Machine-readable benchmark snapshot (BENCH_gemm.json) for regression
# gating with benchdiff. End-to-end serving, cache, job and tracing costs
# are measured by benchmark/ (see BENCHMARK.json), not here.
bench-json:
	$(GO) run ./cmd/adarnet-bench -exp micro,gemm -json-dir .

# Compare two benchmark snapshots; gate the SIMD GEMM kernel's win over the
# scalar fallback (large-shape speedup must not silently erode) with
#   make benchdiff OLD=BENCH_gemm.old.json NEW=BENCH_gemm.json \
#     BENCHDIFF_FLAGS='-metric large_speedup -max-regress 10'
OLD ?= BENCH_gemm.old.json
NEW ?= BENCH_gemm.json
BENCHDIFF_FLAGS ?=
benchdiff:
	$(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS) $(OLD) $(NEW)

verify: fmt asm-vet build test bench-module race race-purego
	@echo verify OK
