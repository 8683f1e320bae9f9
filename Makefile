# Developer entry points. `make check` is the pre-PR gate.

GO ?= go

.PHONY: build test short race race-fault vet fmt check bench bench-check \
	bench-baseline fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

## race: race-detect the concurrency-heavy packages (obs registry, campaign
## runner incl. the fault-injection suite and journal repair, the scan
## engine + the destination categorizer, the artifact engine's cache /
## singleflight / live-tailing paths, the WebSocket frame codec the
## two-pump relay is built on, and the shard coordinator's lease
## watchdog / reassignment machinery incl. the kill-and-reassign
## campaign tests)
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... \
		./internal/pii ./internal/easylist ./internal/domains \
		./internal/analysis ./internal/serve ./internal/ws \
		./internal/shard \
		./cmd/avwserve ./cmd/avwbench ./cmd/avwtop

## race-fault: the fault-tolerance suite under the race detector — every
## failure policy via scripted fault injection, cancellation, journal
## resume, plus the context-threaded session and proxy handshake deadline
## (docs/robustness.md). The full ./internal/proxy run also covers the
## inline gateway's concurrency suite: parallel tunneled flows through one
## shared gateway and client disconnects mid-stream (scanner-pool
## settling).
race-fault:
	$(GO) test -race ./internal/device ./internal/proxy
	$(GO) test -race -run 'TestFailurePolicy|TestExperimentTimeoutStall|TestCampaignCancel|TestProgressSlowSink|TestCampaignJournalResume' \
		./internal/core

vet:
	$(GO) vet ./...

## fmt: fail if any file needs gofmt
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## check: the pre-PR gate — vet, formatting, race tests (including the
## fault-injection suite)
check: vet fmt race race-fault
	@echo "check: OK"

## bench: every root-package benchmark (tables, figures, campaigns,
## ablations) with -benchmem, ungated, into the test2json stream
## BENCH_macro.json for benchstat; the gated streams come from bench-check
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -json . > BENCH_macro.json
	@echo "wrote BENCH_macro.json"

## bench-check: the regression guard — runs every gate in bench_gates.json
## and compares it against its committed baseline, resampling a failing
## gate once (docs/performance.md). One gate: go run ./cmd/benchcheck serve
bench-check:
	$(GO) run ./cmd/benchcheck

## bench-baseline: regenerate every gate's baseline entries from a fresh run
bench-baseline:
	$(GO) run ./cmd/benchcheck -write

## fuzz: short smoke of every fuzz target (CI runs this)
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzScanDifferential -fuzztime=10s ./internal/pii
	$(GO) test -run='^$$' -fuzz=FuzzMatchPattern -fuzztime=10s ./internal/easylist
