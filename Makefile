GO ?= go

# Coverage floor for internal/... — tier-1 tests must keep statement
# coverage at or above this.
COVER_FLOOR ?= 85
# Per-target budget for the fuzz smoke run.
FUZZTIME ?= 20s
# Per-benchmark budget for bench-json (CI smoke passes 1x).
BENCHTIME ?= 1s

.PHONY: all build test race bench bench-json bench-compare-base fmt vet cover cover-binaries fuzz determinism parity docs lint-imports loadtest-smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark, no tests: the smoke run CI uses to keep
# the benchmark harness compiling and executable.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Record the microbenchmark trajectory: the hot-path ladder (sim,
# simdocker, flowcon, migrate, stats, metrics, livedock; 16/64/256
# containers per node), appended as a per-commit entry to BENCH_sim.json.
# End-to-end numbers come from `go run ./bench`; see README "Performance".
bench-json:
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -out BENCH_sim.json

# Same-runner regression gate: benchmark the merge base AND the working
# tree on this machine and compare — the form CI runs on every PR.
bench-compare-base:
	BENCHTIME=$(BENCHTIME) ./scripts/bench-compare-base.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Integration coverage of the program as its binaries run it: every
# binary and example built with -cover, the CI legs run under one
# GOCOVERDIR, then the reached share and every function no binary
# entered. A report, not a gate — it fails only when a leg fails.
cover-binaries:
	./scripts/cover-binaries.sh

# The whole sweep registry (including the migration and streaming
# production-day scenarios; the heavy megacluster family is covered by
# its smoke member below) must render byte-identically at sweep pool
# widths 1 and 8, and with lifecycle tracing on — the determinism
# guarantees CI enforces on every PR. The megacluster-smoke leg drives
# ~50k streamed arrivals through the lazy admission loop on 1000 workers
# and must render the same on a second run. The chaos leg pins the
# fault-injected pair explicitly: a seeded chaos run's fault trace is
# part of the byte-identity contract.
determinism:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/flowcon-sim ./cmd/flowcon-sim && \
	$$dir/flowcon-sim -scenario all -seeds 2 -parallel 1 > $$dir/serial.out && \
	$$dir/flowcon-sim -scenario all -seeds 2 -parallel 8 > $$dir/parallel.out && \
	cmp $$dir/serial.out $$dir/parallel.out && \
	echo "scenario output is byte-identical at -parallel 1 and 8" && \
	$$dir/flowcon-sim -scenario all -seeds 2 -parallel 1 -trace-out $$dir/spans.jsonl > $$dir/traced.out && \
	cmp $$dir/serial.out $$dir/traced.out && \
	test -s $$dir/spans.jsonl && \
	echo "scenario output is byte-identical with lifecycle tracing on (spans exported)" && \
	$$dir/flowcon-sim -scenario megacluster-smoke -seeds 1 > $$dir/mega-a.out && \
	$$dir/flowcon-sim -scenario megacluster-smoke -seeds 1 > $$dir/mega-b.out && \
	cmp $$dir/mega-a.out $$dir/mega-b.out && \
	echo "megacluster-smoke streaming output is byte-identical across runs" && \
	$$dir/flowcon-sim -scenario chaos-day,chaos-day-scratch -seeds 2 -parallel 1 > $$dir/chaos-serial.out && \
	$$dir/flowcon-sim -scenario chaos-day,chaos-day-scratch -seeds 2 -parallel 8 > $$dir/chaos-parallel.out && \
	cmp $$dir/chaos-serial.out $$dir/chaos-parallel.out && \
	echo "chaos-day fault traces are byte-identical at -parallel 1 and 8"

# Byte-for-byte output parity with the merge base: every figure/table
# regenerator, the scenario registry, the chaos pair and megacluster-smoke
# through both binaries. The check a simplification PR must pass (or
# explain, target by target); deliberately not part of ci.
parity:
	./scripts/parity-base.sh

# Short smoke run of every native fuzz target (the corpus under
# testdata/fuzz runs as regular tests too).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzPlanLimits$$' -fuzztime=$(FUZZTIME) ./internal/flowcon
	$(GO) test -run='^$$' -fuzz='^FuzzCycleMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/flowcon
	$(GO) test -run='^$$' -fuzz='^FuzzGenerate$$' -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzReplay$$' -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz='^FuzzSketchStore$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzSeries$$' -fuzztime=$(FUZZTIME) ./internal/metrics
	$(GO) test -run='^$$' -fuzz='^FuzzAgentRequests$$' -fuzztime=$(FUZZTIME) ./internal/agent

# Docs hygiene: every relative markdown link in README/ROADMAP/docs/
# must resolve (no network — external links are skipped), and the Go
# sources the docs describe must be gofmt-clean and vet-clean.
docs: fmt vet
	./scripts/check-docs.sh

# Layering lint (see docs/RUNTIME.md): the rebalancer must never reach
# for the concrete simdocker backend again, and the live path (the node,
# the agent, the pacer, the worker binary) must stay free of the
# simulated cluster, its migration and its backend.
lint-imports:
	@if grep -rn '"repro/internal/simdocker"' internal/migrate/*.go; then \
		echo "internal/migrate must not import simdocker: drive workers through cluster.Worker and Manager.Migrate"; exit 1; \
	fi
	@if grep -rnE '"repro/internal/(cluster|migrate|simdocker)"' internal/livedock internal/agent internal/realtime cmd/flowcon-worker; then \
		echo "the live path must not import cluster, migrate or simdocker: it runs livedock.Node under runtime.Runtime"; exit 1; \
	fi
	@echo "import layering ok (internal/migrate is simdocker-free; the live path is free of cluster, migrate and simdocker)"

# Boot a real flowcon-worker and drive /v1 with concurrent submitters:
# zero errors, bounded p99 submit latency, clean SIGTERM shutdown. The
# latency fields are recorded into a throwaway copy of BENCH_sim.json;
# the tracked file is left untouched.
loadtest-smoke:
	./scripts/loadtest-smoke.sh

ci: fmt vet lint-imports build test race bench cover fuzz determinism docs loadtest-smoke
