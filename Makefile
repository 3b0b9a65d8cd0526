GO ?= go

.PHONY: check vet lint fmt fuzz-smoke build test test-race bench-check bench-quick bench bench-json bench-load bench-eval

## check: everything CI runs — vet, lint, build, race-detector tests on
## the parallel packages, the full test suite, then the bench module.
check: vet lint build test-race test bench-check

vet:
	$(GO) vet ./...

## lint: style gates with no external tooling. All logging goes through
## the component loggers in internal/obs, so a bare log.Printf anywhere
## else is a regression. Also runs gofmt and a short fuzz pass over the
## corpus decoders, so the parsers get adversarial input on every
## check, not only when someone remembers to fuzz.
lint: fmt fuzz-smoke
	@bad=$$(grep -rn 'log\.Printf' --include='*.go' . | grep -v '^\./internal/obs/' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: log.Printf outside internal/obs (use obs.Logger):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'context\.Background()' --include='*.go' internal/serve/ | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: context.Background() in internal/serve (handlers must inherit the request context; background work uses Tracer.BackgroundContext):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn 'computePrestige\|computeHetero\|computePopularity\|applyFade' --include='*.go' . | grep -v '^\./internal/core/' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: solver phase call outside internal/core (rank through the scorer registry — core.RankScorer or Engine.RankWith):"; \
		echo "$$bad"; exit 1; \
	fi

## fmt: fail on any file gofmt would rewrite.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "fmt: files need gofmt:"; echo "$$bad"; exit 1; \
	fi

## fuzz-smoke: 10 seconds each on the decoders that consume untrusted
## bytes — the TSV parser, the SCORP binary reader, and the W3C
## traceparent header parser on the serving path.
fuzz-smoke:
	$(GO) test ./internal/corpus/ -run xxx -fuzz FuzzReadTSV -fuzztime 10s
	$(GO) test ./internal/corpus/ -run xxx -fuzz FuzzReadSCORP -fuzztime 10s
	$(GO) test ./internal/corpus/ -run xxx -fuzz FuzzParseShardManifest -fuzztime 10s
	$(GO) test ./internal/obs/ -run xxx -fuzz FuzzParseTraceparent -fuzztime 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## test-race: the packages that exercise the worker pool, fused
## kernels and the hot-swap serving path, under the race detector.
test-race:
	$(GO) test -race ./internal/sparse/... ./internal/core/... ./internal/hetnet/... ./internal/rank/... ./internal/live/... ./internal/serve/... ./internal/obs/...

## bench-check: vet and test the nested bench module. It compiles
## against internal/ but the root ./... never builds it, so without
## this an internal-API break surfaces only at the benchmark gate.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## bench-quick: the headline solver benchmark on the shrunken corpus
## (seconds; EXPERIMENTS.md §F6 records the reference numbers).
bench-quick:
	QISA_BENCH_QUICK=1 $(GO) test -run xxx -bench 'BenchmarkFigure6Parallel$$' -benchtime 20x -benchmem .

## bench: every table/figure benchmark on the full-size corpora.
bench:
	$(GO) test -run xxx -bench . -benchmem .

## bench-json: machine-readable benchmark artifacts. Runs the
## Jacobi/extrapolated/Gauss–Seidel walk benchmark and the end-to-end
## parallel solve (quick corpus) into BENCH_5.json, then the 100k corpus
## boot-time benchmark (mmap vs heap) into BENCH_6.json, then the
## shard-scaling curve (damped walk over 1/2/4/8 edge-balanced shards
## on the 100k power-law corpus) into BENCH_10.json, via cmd/benchjson.
bench-json:
	@{ \
		QISA_BENCH_QUICK=1 $(GO) test -run xxx -bench 'BenchmarkFigure6Parallel$$' -benchtime 20x -benchmem . && \
		$(GO) test ./internal/sparse/ -run xxx -bench 'BenchmarkDampedWalkPowerLaw' -benchtime 5x -benchmem ; \
	} | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_5.json
	@echo "wrote BENCH_5.json"
	@$(GO) test ./internal/corpus/ -run xxx -bench 'BenchmarkSCORPBoot' -benchtime 20x -benchmem \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_6.json
	@echo "wrote BENCH_6.json"
	@$(GO) test ./internal/sparse/ -run xxx -bench 'BenchmarkShardedWalkPowerLaw100k' -benchtime 3x -count 3 -benchmem \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_10.json
	@echo "wrote BENCH_10.json"

## bench-eval: the scorer leaderboard smoke into BENCH_9.json — every
## registered scorer ranks one tiny synthetic corpus on a shared
## engine, and the artifact records per-scorer cost plus the pairwise
## agreement matrix (Kendall τ-b, Spearman ρ, top-K overlap).
bench-eval:
	$(GO) run ./cmd/sareval -leaderboard -quick -json BENCH_9.json
	@echo "wrote BENCH_9.json"

## bench-load: serving-path load benchmark into BENCH_8.json. Ranks a
## 100k synthetic corpus in-process and drives it with the mixed
## open-loop workload (cmd/loadgen), reporting QPS, per-route
## p50/p95/p99, the /query cache cold-vs-hot speedup, and the
## trace-derived server-side time split (queue wait, cache lookup,
## index execution) aggregated from Server-Timing headers.
bench-load:
	$(GO) run ./cmd/loadgen -smoke -articles 100000 -duration 5s -qps 2000 -o BENCH_8.json
	@echo "wrote BENCH_8.json"
