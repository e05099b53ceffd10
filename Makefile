GO ?= go

.PHONY: check build crossbuild vet lint test race stress bench bench-smoke fmt

## check: the tier-1 gate — what CI runs.
check: vet lint build crossbuild test race

build:
	$(GO) build ./...

## crossbuild: compile for a non-linux GOOS so the portable mmap
## fallback (mapfile_fallback.go) stays buildable, not just the linux
## fast path the tests exercise.
crossbuild:
	GOOS=darwin $(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repo-specific contract checkers (internal/lint): the
## determinism, view-pinning, typed-error, and no-alloc contracts,
## machine-checked over every package. Failures print file:line with
## the violated contract's name; suppressions are //fmeter: directives
## that always carry a reason.
lint:
	$(GO) run ./cmd/fmeter-vet ./...

test:
	$(GO) test ./...

## race: short race-detector pass over the packages with parallel fan-outs.
race:
	$(GO) test -race -count=1 ./internal/parallel/ ./internal/svm/ \
		./internal/crossval/ ./internal/cluster/ ./internal/core/ \
		./internal/vecmath/ ./internal/experiments/ ./internal/percpu/ \
		./internal/serve/

## stress: the concurrency property sweep (interleaved
## Add/Seal/Compact/TopK/Classify vs serialized execution against each
## pinned epoch view) and the SaveDir/LoadDir fault-injection matrices,
## under the race detector with iteration counts elevated via
## FMETER_STRESS. This is the long-soak proof behind the concurrent
## read/write contract; CI runs it on every push.
stress:
	FMETER_STRESS=1 $(GO) test -race -count=1 -timeout 20m ./internal/core/ \
		-run 'TestConcurrent|TestCloseUnderLoad|TestSaveDir|TestLoadDirFault' -v
	$(GO) test -race -count=1 ./internal/daemon/

## bench: the full reproduction benchmark harness.
bench:
	$(GO) test -run=NONE -bench=. -benchmem .

## bench-smoke: a quick perf-trajectory record (BENCH_baseline.json for
## wall-clock, BENCH_indexed.json for the retrieval micro-benchmarks:
## Transform sparse vs dense view, exhaustive-scan vs inverted-index
## TopK — BenchmarkDBTopKSharded vs BenchmarkDBTopKIndexed — the batched
## BenchmarkDBTopKBatch/BenchmarkDBClassifyBatch 0-allocs records,
## BENCH_segments.json for the segmented-store persistence benchmark:
## full vs incremental SaveDir,
## BENCH_postings.json for the posting-compression benchmark: index
## bytes unsealed vs sealed, TopK over both, cold-load
## mapped vs resident vs rebuild, and BENCH_pruned.json for the pruning
## scaling ladder: TopK pruned vs unpruned vs theta=0.5 at
## 10k/100k/1M signatures plus the sealed-segment trajectory under the
## tier policy, and BENCH_concurrent.json for the mixed read/write
## benchmark: TopK p50/p99 read-only vs under a fixed-rate concurrent
## writer with live seals and tier compactions) so future PRs can
## compare like against like.
## The serving layer has no record here: its end-to-end numbers are
## bench/ (BENCHMARK.json), its micro-benchmark is
## `go test ./internal/serve -run '^$$' -bench ServeTopKParallel`.
## `fmeter-bench -index=on|off` reproduces the scan/index comparison
## from the CLI and `-prune=on|off` the pruned/plain sealed walk;
## `-cpuprofile`/`-memprofile` wrap any run in pprof.
bench-smoke:
	$(GO) run ./cmd/fmeter-bench -run table4,fig5 -perclass 60 \
		-benchjson BENCH_baseline.json -out /tmp/fmeter-reports
	$(GO) run ./cmd/fmeter-bench -microjson BENCH_indexed.json
	$(GO) run ./cmd/fmeter-bench -segjson BENCH_segments.json
	$(GO) run ./cmd/fmeter-bench -postjson BENCH_postings.json
	$(GO) run ./cmd/fmeter-bench -prunejson BENCH_pruned.json
	$(GO) run ./cmd/fmeter-bench -mixedjson BENCH_concurrent.json

fmt:
	gofmt -l -w .
