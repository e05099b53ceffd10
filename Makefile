GO ?= go

.PHONY: check build crossbuild vet lint test race stress bench bench-compile bench-smoke fmt

## check: the tier-1 gate — what CI runs.
check: vet lint build crossbuild test race

build:
	$(GO) build ./...

## crossbuild: compile for a non-linux GOOS, so nothing linux-only
## creeps into the module unnoticed.
crossbuild:
	GOOS=darwin $(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repo-specific contract checkers (internal/lint): the
## determinism, typed-error, and no-alloc contracts,
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
## Add/Seal/SaveDir/TopK/Classify vs serialized execution against each
## epoch view a query loaded), the race of queries building pending posting
## runs against AddAll, Seal and Close (TestConcurrentQueryBuiltRuns), the
## batched-ingest exactness sweep (AddAll vs one Add at a time, at several
## core counts: TestAddAllMatchesOneByOne), the encode counts (no writer or
## load encodes, racing first queries build each run once:
## TestOnlyQueriesEncode), the
## SaveDir/LoadDir fault-injection matrices (the crash matrix's fill arm: a
## segment held in short files fills and is saved as one) and the retried
## save's sync-before-manifest ordering (TestSaveDirRetrySyncsBeforeManifest),
## under the race detector with iteration counts elevated via
## FMETER_STRESS. This is the long-soak proof behind the concurrent
## read/write contract; CI runs it on every push.
stress:
	FMETER_STRESS=1 $(GO) test -race -count=1 -timeout 20m ./internal/core/ \
		-run 'TestConcurrent|TestCloseUnderLoad|TestAddAllMatchesOneByOne|TestOnlyQueriesEncode|TestSaveDir|TestLoadDirFault' -v
	$(GO) test -race -count=1 ./internal/daemon/

## bench: the full reproduction benchmark harness.
bench:
	$(GO) test -run=NONE -bench=. -benchmem .

## bench-compile: one iteration of the micro-benchmarks DESIGN-PERF.md's
## numbers come from, so they cannot rot into code that no longer
## compiles or panics: the set-up path (Transform, TransformAll,
## Corpus.Add, the AddAll bulk load, which records its runs, and the
## first query that builds them), the cold open of a 24 000-row snapshot
## (LoadDirPeaked: packed and raw-float64 weight records, with the bytes
## on disk per signature, and the packed open plus the first query that
## builds the runs it recorded), the
## kernel_large query in process (BenchmarkTopKFlat's class arm), the
## wire_small store's query with the whole-unit posting walk forced
## (its tiny arm) and the query-body decoder against encoding/json. It
## times nothing.
bench-compile:
	$(GO) test -run '^$$' -bench 'Transform|CorpusAdd|AddAll|FirstQueryPendingRuns|LoadDirPeaked' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'TopKFlat/(peaked|tiny)/(class|nnz=12)' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'DecodeQueryRequest' -benchtime 1x ./internal/serve/

## bench-smoke: what bench/ cannot show yet — table/figure wall-clock and the
## 10k → 100k scale ladder (the 1M rung is an off-CI run at the default -scale).
bench-smoke:
	$(GO) run ./cmd/fmeter-bench -run table4,fig5 -perclass 60 \
		-benchjson BENCH_baseline.json -out /tmp/fmeter-reports
	$(GO) run ./cmd/fmeter-bench -prunejson BENCH_pruned.json -scale 100000

fmt:
	gofmt -l -w .
