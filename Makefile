GO ?= go

.PHONY: build vet lint test race bench golden bench-baseline sim-scale-baseline check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# go vet plus the repo's own determinism/concurrency analyzers
# (internal/lint, see DESIGN.md §9 and §12), and a drift check that the
# shipped analyzer set still matches the documented one. The binary is
# built once so the module isn't recompiled per invocation.
lint: vet
	$(GO) build -o bin/harmony-lint ./cmd/harmony-lint
	./bin/harmony-lint -timing -timing-budget 120s ./...
	./bin/harmony-lint -list | diff -u cmd/harmony-lint/testdata/analyzers.txt -

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark, as a does-it-run smoke pass.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Result-drift gate: the deterministic experiments must reproduce their
# committed renderings exactly. fig13-17 and fig14-18 pin the
# characterization's class centroids and short/long split.
golden:
	$(GO) run ./cmd/harmony-bench -exp fig1,fig9,fig10-12,fig13-17,fig14-18 -golden check -golden-dir cmd/harmony-bench/testdata/golden

# Re-measure the control-path micro-benchmarks and overwrite the tracked
# baseline (BENCH_control_path.json). Run on a quiet machine and commit
# the result whenever the control path changes materially.
bench-baseline:
	$(GO) run ./cmd/harmony-bench -benchjson BENCH_control_path.json

# Re-run the 1M+-task streaming simulation and overwrite the tracked
# scale baseline (BENCH_sim_scale.json): throughput, allocation per
# task, and the live-heap peak of a full-cluster streamed run.
sim-scale-baseline:
	$(GO) run ./cmd/harmony-bench -simscale-json BENCH_sim_scale.json -hours 13 -rate 10.1 -scale 1

check: build lint race bench golden
