# Development targets. `make verify` is the full pre-merge gate: build,
# formatting, vet (of the root and the perfbench module), the project lint
# suite, and the test suite under the race detector.

GO ?= go

.PHONY: build test fmt vet lint race verify bench bench-pipeline serve-smoke sweep-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt fails when gofmt would reformat any Go file, and names the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# perfbench is its own module, so `./...` at the root never compiles it;
# vet it too, so a change to the public API that breaks the benchmark fails
# here rather than only in CI's perfbench job.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# lint runs cmd/piclint, the project's own analyzer suite (determinism,
# floatcmp, closecheck, ctxflow, obsnil). A non-zero exit means an
# unsuppressed finding; waive deliberate violations with a reasoned
# `//lint:allow <analyzer> <reason>` on or above the flagged line.
lint:
	$(GO) run ./cmd/piclint ./...

# The root package alone runs ~10 min under the race detector (golden +
# fused end-to-end tests), which brushes go test's default 10m per-package
# timeout on a loaded machine; give it headroom.
race:
	$(GO) test -race -timeout 30m ./...

verify: build fmt vet lint race

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-pipeline regenerates BENCH_pipeline.json: paper-scale fill (scalar
# vs tiled), StreamConcurrent frames/sec, fused-run wall time, BSP replay
# time per prediction, sweep configs/s, the rebalance policies and model
# training (TrainModels fast/full, GP population scoring compiled vs tree).
# Use BENCHTIME=1x for a quick smoke pass.
bench-pipeline:
	./scripts/pipeline_bench.sh

# serve-smoke boots picserve on the golden fixture, exercises /readyz and
# /v1/predict, and requires a clean SIGTERM drain with a manifest — then
# does the same for the picgate coordinator over a three-shard fleet,
# killing one shard mid-run to prove the failover story on real processes.
serve-smoke:
	./scripts/picserve_smoke.sh
	./scripts/picgate_smoke.sh

# sweep-smoke runs the capacity-planning sweep through both front ends —
# `predict -sweep` (twice, at different worker counts; byte-identical JSON
# required) and picserve's POST /v1/optimize — and diffs the ranked
# frontiers, which must agree exactly.
sweep-smoke:
	./scripts/sweep_smoke.sh
