# Local targets mirror .github/workflows/ci.yml exactly.

GO ?= go
# staticcheck runs from a pinned version so local and CI findings agree.
# `go run` resolves it from the module proxy; offline environments skip
# it with a warning unless STATICCHECK_STRICT=1 (what CI sets).
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
STATICCHECK_STRICT ?= 0

.PHONY: build test test-386 lint fuzz bench figures api check-api proc-smoke crash-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# test-386 runs every package as 32-bit binaries (natively on amd64), so
# no key, hash, golden or layout test may depend on the word size.
test-386:
	GOARCH=386 $(GO) test ./...

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
# the CI fuzz job: every byte-format decoder (relation payloads — the
# columnar batch, Mixed columns included, and the read-only legacy row
# format — the transport frame layer, WAL records, the worker's request
# decoder behind every driver/worker op with deploy blobs included,
# checkpoints, and both changefeed messages) must never panic on
# arbitrary bytes — the in-place columnar batch reader, the checkpoint
# and the changefeed decoders must also re-encode what they accept to
# the same bytes — tuples with equal
# canonical keys must compare and hash equal, and every value's key must
# be its exact numeric value (distinct integers past 2^53 and at the ends
# of int64 included), any sequence of relation operations must match a
# plain-map model, Foreach, Probe, Clone and Merge in insertion order, the
# simulator's computed shuffle size must equal the length of the
# one-pass writer's output on every relation, mixed kinds included, and
# the local and Distributed(2) engines must equal the oracle
# (internal/baseline) after every transaction of a short stream of
# inserts and deletes on one of a fixed set of query shapes, and the
# prepared plans' value kernels (FuzzValueKernels) must equal their
# definitions: float arithmetic bit for bit ArithV(...).AsFloat(), the
# integer-literal comparison expr.EvalCmp.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzHashColsKeyEqual$$' -fuzztime=30s ./internal/mring
	$(GO) test -run='^$$' -fuzz='^FuzzRelationOps$$' -fuzztime=30s ./internal/mring
	$(GO) test -run='^$$' -fuzz='^FuzzColBatchDecode$$' -fuzztime=30s ./internal/pool
	$(GO) test -run='^$$' -fuzz='^FuzzEncodedSize$$' -fuzztime=30s ./internal/pool
	$(GO) test -run='^$$' -fuzz='^FuzzFrameDecode$$' -fuzztime=30s ./internal/net
	$(GO) test -run='^$$' -fuzz='^FuzzWALDecode$$' -fuzztime=30s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzServeRequest$$' -fuzztime=30s ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeCheckpoint$$' -fuzztime=30s ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzFeedMessages$$' -fuzztime=30s .
	$(GO) test -run='^$$' -fuzz='^FuzzOracleAgreement$$' -fuzztime=30s .
	$(GO) test -run='^$$' -fuzz='^FuzzValueKernels$$' -fuzztime=30s ./internal/eval

# proc-smoke runs the process-cluster smoke gate: builds the real worker
# binary, spawns 4 worker processes on localhost, and asserts the
# cluster driver over them is bitwise-equal to the same driver over
# in-process workers at the same worker count, and to the local engine
# (same step as the CI job).
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

# figures prints the paper's tables and figures, each a test asserting
# its shape on counted work (internal/bench).
figures:
	$(GO) test -count=1 -v -run '^Test(Fig|Table)' ./internal/bench

# api regenerates the golden public-API surface file. Run it whenever
# the exported surface of the root package changes on purpose.
api:
	$(GO) doc -all . > API.txt

# check-api fails when the exported surface drifted without the golden
# being regenerated, so API changes are always deliberate.
check-api:
	@$(GO) doc -all . | diff -u API.txt - || { \
		echo "exported API surface changed: run 'make api' and commit API.txt" >&2; exit 1; }

# loc prints the Go line counts a simplicity change reports: non-test and
# test lines per package directory, benchmark/ (the harness) on its own
# line, then the module with and without it.
loc:
	@src() { find "$$@" -name '*.go' | grep '\.go$$' | grep -v '_test\.go$$' | xargs -r cat | wc -l; }; \
	tst() { find "$$@" -name '*.go' | grep '_test\.go$$' | xargs -r cat | wc -l; }; \
	printf '%-26s %9s %9s\n' package non-test test; \
	for d in $$(find . -path ./benchmark -prune -o -name '*.go' -print | xargs -n1 dirname | sort -u); do \
		printf '%-26s %9d %9d\n' "$${d#./}" $$(src $$d -maxdepth 1) $$(tst $$d -maxdepth 1); done; \
	printf '%-26s %9d %9d\n' benchmark/ $$(src benchmark) $$(tst benchmark); \
	printf '%-26s %9d %9d\n' 'module without benchmark/' $$(src . -path ./benchmark -prune -o) $$(tst . -path ./benchmark -prune -o); \
	printf '%-26s %9d %9d\n' module $$(src .) $$(tst .)

ci: lint build test proc-smoke crash-smoke check-api bench
