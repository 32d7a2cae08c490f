# Local targets mirror .github/workflows/ci.yml exactly.

GO ?= go
# PR number stamped into the benchmark report filename (BENCH_<PR>.json):
# one past the newest committed report, so a fresh `make bench-json`
# never overwrites history by default. Override with PR=<n>. The newest
# report is picked numerically (shell sort -n), not lexicographically —
# $(sort) would rank BENCH_10.json before BENCH_2.json.
LATEST_PR := $(shell printf '%s\n' $(patsubst BENCH_%.json,%,$(wildcard BENCH_*.json)) | sort -n | tail -1)
PR ?= $(if $(LATEST_PR),$(shell expr $(LATEST_PR) + 1),1)
# Baseline report the new measurements are diffed against; a >15% drop
# of a tracked speedup ratio (native over reference, both measured in
# the same run, so the ratio is hardware-independent) fails the target.
# Defaults to the newest committed report; benchjson loads it before
# overwriting the output file, so self-diffing a report against its
# committed copy is sound. Skipped when no report exists yet.
BENCH_BASELINE ?= $(if $(LATEST_PR),BENCH_$(LATEST_PR).json,)
BENCH_BASELINE_FLAG := $(if $(wildcard $(BENCH_BASELINE)),-baseline $(BENCH_BASELINE),)

# staticcheck runs from a pinned version so local and CI findings agree.
# `go run` resolves it from the module proxy; offline environments skip
# it with a warning unless STATICCHECK_STRICT=1 (what CI sets).
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
STATICCHECK_STRICT ?= 0

.PHONY: build test lint fuzz bench bench-json api check-api soak proc-smoke crash-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	elif [ "$(STATICCHECK_STRICT)" = "1" ]; then \
		echo "staticcheck $(STATICCHECK) could not be resolved" >&2; exit 1; \
	else \
		echo "warning: staticcheck unavailable (offline?); skipping" >&2; \
	fi

# fuzz exercises the decode/hash attack surfaces for 30s each, same as
# the CI fuzz job: the wire decoders (columnar, row payload, and the
# transport frame layer) must never panic on arbitrary bytes, and the
# columnar hash kernels must agree with the row-wise hashes.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzHashColsKeyEqual$$' -fuzztime=30s ./internal/mring
	$(GO) test -run='^$$' -fuzz='^FuzzColBatchDecode$$' -fuzztime=30s ./internal/pool
	$(GO) test -run='^$$' -fuzz='^FuzzFrameDecode$$' -fuzztime=30s ./internal/net
	$(GO) test -run='^$$' -fuzz='^FuzzWALDecode$$' -fuzztime=30s ./internal/store

# proc-smoke runs the process-cluster smoke gate: builds the real worker
# binary, spawns 4 worker processes on localhost, and asserts the
# cluster driver over them is bitwise-equal to the same driver over
# in-process workers at the same worker count (same step as the CI job).
proc-smoke:
	$(GO) build -o bin/ivmworker ./cmd/ivmworker
	IVM_WORKER_BIN=$(CURDIR)/bin/ivmworker $(GO) test -race -run '^TestProcessClusterSmoke$$' -v .

# crash-smoke runs the durability crash gate: builds the real victim
# binary (cmd/ivmcrash), SIGKILLs it at a randomized committed
# transaction, reopens its durable directory in-process, and asserts
# the recovered Result and the continued changefeed are bitwise-equal
# to an uninterrupted oracle (same step as the CI job; the kill point's
# RNG seed is logged for reproduction).
crash-smoke:
	$(GO) build -o bin/ivmcrash ./cmd/ivmcrash
	IVM_CRASH_BIN=$(CURDIR)/bin/ivmcrash $(GO) test -race -run '^TestCrashSmoke$$' -v .

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x . ./internal/bench/

# api regenerates the golden public-API surface file. Run it whenever
# the exported surface of the root package changes on purpose.
api:
	$(GO) doc -all . > API.txt

# check-api fails when the exported surface drifted without the golden
# being regenerated, so API changes are always deliberate.
check-api:
	@$(GO) doc -all . | diff -u API.txt - || { \
		echo "exported API surface changed: run 'make api' and commit API.txt" >&2; exit 1; }

# bench-json runs the representative tier-2 measurements, records them in
# BENCH_$(PR).json (query, batch size, tuples/sec, shuffled bytes), and
# diffs the tracked microbenchmark speedup ratios against
# $(BENCH_BASELINE): the target (and the CI job) fails when the
# RelationAddGet, AggGroupUpdate, ColFilter, ColFold, MultiView, or
# SkewRebalance ratio drops more than 15%, when AggGroupUpdate falls
# below its 1.5x acceptance floor, when neither columnar kernel ratio
# clears its 1.5x floor, when MultiView falls below its 2x
# shared/independent floor, or when skew-feedback repartitioning gains
# less than 1.2x virtual critical-path compute on the hot-key stream.
bench-json:
	$(GO) run ./cmd/benchjson -pr $(PR) -out BENCH_$(PR).json $(BENCH_BASELINE_FLAG)

# soak runs the self-tuning controllers against a skewed stream for
# SOAK_TIME of wall time under the race detector and asserts that
# repartitioning settles (same step as CI). SOAK_TIME=2s by default for
# a quick local check; CI uses 30s.
SOAK_TIME ?= 2s
soak:
	TUNE_SOAK=$(SOAK_TIME) $(GO) test -race -run '^TestTuningSoak$$' -v .

ci: lint build test check-api
	@$(MAKE) bench || echo "warning: benchmark smoke pass failed"
	@$(MAKE) bench-json
