GO ?= go

.PHONY: check vet lint fmt fuzz-smoke build test test-race results-check bench-check bench-smoke

## check: everything CI runs — vet, lint, build, race-detector tests on
## the parallel packages, the full test suite, the full-size experiment
## tables against results/, then the bench module and a short run of
## the benchmark harness.
check: vet lint build test-race test results-check bench-check bench-smoke

vet:
	$(GO) vet ./...

## lint: style gates with no external tooling. The grep gates live as
## one table in scripts/lint-gates.sh (pattern | root | exempt paths |
## message): all logging goes through the component loggers in
## internal/obs, serve handlers inherit the request context, the walk
## executor and the pipeline's stage functions are reached only through
## the scorer registry, and worker
## pool handles come only from the engine's solve and the
## related-article index (scorers honour Options.Workers through
## SolveContext.Pool), only hetnet builds the Gauss–Seidel
## citation operator, only the engine takes gap views of it
## (GapWeighted: rows are normalised per citing article, so a weight
## set by the citing article alone cancels), and internal/serve
## registers metrics only in its declaration list
## (internal/serve/telemetry.go), so /metrics and /stats render each
## quantity from one entry. Also runs gofmt
## and a short fuzz pass over the decoders, so the parsers get
## adversarial input on every check, not only when someone remembers
## to fuzz.
lint: fmt fuzz-smoke
	@bash scripts/lint-gates.sh

## fmt: fail on any file gofmt would rewrite.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "fmt: files need gofmt:"; echo "$$bad"; exit 1; \
	fi

## fuzz-smoke: 10 seconds each on the decoders that consume untrusted
## bytes — the JSONL and TSV parsers, the SCORP corpus reader, the
## SRNKS ranking snapshot reader (sarserve -scores; both are containers,
## package container), the JSONL delta applier behind POST
## /admin/ingest and the spool directory, the W3C traceparent header
## parser and the /query page-token decoder on the serving path — on
## the radix score order,
## whose float-to-key mapping must match the comparator order on every
## bit pattern, and on the certified /related walk, whose ordered top k
## must match a walk run to 1e-14 whenever it reports a certificate.
fuzz-smoke:
	$(GO) test ./internal/corpus/ -run xxx -fuzz FuzzReadJSONL -fuzztime 10s
	$(GO) test ./internal/corpus/ -run xxx -fuzz FuzzReadTSV -fuzztime 10s
	$(GO) test ./internal/corpus/ -run xxx -fuzz FuzzReadSCORP -fuzztime 10s
	$(GO) test ./internal/live/ -run xxx -fuzz FuzzReadSnapshot -fuzztime 10s
	$(GO) test ./internal/live/ -run xxx -fuzz FuzzApplyDelta -fuzztime 10s
	$(GO) test ./internal/obs/ -run xxx -fuzz FuzzParseTraceparent -fuzztime 10s
	$(GO) test ./internal/serve/ -run xxx -fuzz FuzzDecodeCursor -fuzztime 10s
	$(GO) test ./internal/eval/ -run xxx -fuzz FuzzOrder -fuzztime 10s
	$(GO) test ./internal/sparse/ -run xxx -fuzz FuzzSeedWalkCertificate -fuzztime 10s

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

## test-race: the packages that exercise the worker pool, fused
## kernels, the hot-swap serving path and the response cache's
## single-flight, under the race detector.
test-race:
	$(GO) test -race -shuffle=on ./internal/sparse/... ./internal/core/... ./internal/hetnet/... ./internal/rank/... ./internal/live/... ./internal/serve/... ./internal/query/... ./internal/obs/...

## results-check: regenerate every experiment table at full size
## (sareval -run all -csv, about 40 s) and cmp each CSV with the
## committed results/*.csv, masking only the wall-clock columns named in
## internal/experiments/testdata/timing-columns.txt.
results-check:
	@bash scripts/results-check.sh

## bench-check: vet and test the nested bench module. It compiles
## against internal/ but the root ./... never builds it, so without
## this an internal-API break surfaces only at the benchmark gate.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## bench-smoke: run the benchmark harness on all four workloads for 2 s
## each (about half a minute). bench-check only compiles and tests the
## bench module; a harness that builds but produces no numbers is
## caught here. Fails unless every workload's JSON line reads
## "correct":true and "failed":0.
bench-smoke:
	@out=$$(bash bench/run.sh -all -seed 1 -seconds 2) || { echo "$$out"; exit 1; }; \
	lines=$$(echo "$$out" | grep '^{' || true); \
	good=$$(echo "$$lines" | grep -c '"correct":true,.*"failed":0[,}]' || true); \
	if [ "$$good" -ne 4 ] || [ "$$(echo "$$lines" | grep -c .)" -ne 4 ]; then \
		echo "$$out"; echo "bench-smoke: $$good of 4 workloads correct with no failed operations"; exit 1; \
	fi; \
	echo "bench-smoke: 4 of 4 workloads correct with no failed operations"
