# Local targets mirror .github/workflows/ci.yml exactly.

GO ?= go
# staticcheck runs from a pinned version so local and CI findings agree.
# `go run` resolves it from the module proxy; offline environments skip
# it with a warning unless STATICCHECK_STRICT=1 (what CI sets).
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
STATICCHECK_STRICT ?= 0

.PHONY: build test lint fuzz bench api check-api soak proc-smoke crash-smoke ci

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

# bench is the smoke pass: one iteration of every benchmark under
# internal/. The performance harness proper is benchmark/run.sh.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/...

# api regenerates the golden public-API surface file. Run it whenever
# the exported surface of the root package changes on purpose.
api:
	$(GO) doc -all . > API.txt

# check-api fails when the exported surface drifted without the golden
# being regenerated, so API changes are always deliberate.
check-api:
	@$(GO) doc -all . | diff -u API.txt - || { \
		echo "exported API surface changed: run 'make api' and commit API.txt" >&2; exit 1; }

# soak runs the self-tuning controllers against a skewed stream for
# SOAK_TIME of wall time under the race detector and asserts that
# repartitioning settles (same step as CI). SOAK_TIME=2s by default for
# a quick local check; CI uses 30s.
SOAK_TIME ?= 2s
soak:
	TUNE_SOAK=$(SOAK_TIME) $(GO) test -race -run '^TestTuningSoak$$' -v .

ci: lint build test check-api
	@$(MAKE) bench || echo "warning: benchmark smoke pass failed"
