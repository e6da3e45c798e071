GO ?= go

.PHONY: all build test race vet bench-all bench-scale cover cover-check chaos goldens verify repro smoke smoke-cloudsim smoke-evasion fuzz-smoke examples loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l .

test:
	$(GO) test ./...

# Run the test suite under the race detector (the experiment engine fans
# detection runs out over a worker pool; this keeps it provably race-free).
race:
	$(GO) test -race ./...

# The ingest scale runs: the 10k-stream throughput passes (binary + CSV
# baseline), each printing its sustained samples/sec, and the 100k-stream
# correctness run (bounded-inflight, 2 load processes, alarm parity against
# a single-process reference).
bench-scale:
	./scripts/scale_sdsload.sh

# Run every Go benchmark. The end-to-end benchmark with its bounds is
# bench/run.sh (see BENCHMARK.json).
bench-all:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Enforce the statement-coverage floor (CI fails below it). The floor is a
# ratchet: raise it when coverage grows, never lower it to admit a regression.
COVER_FLOOR := 70.0
cover-check:
	$(GO) test -coverprofile=cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{sub(/%/,"",$$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }'

# The fault-injection suite under the race detector: deterministic chaos
# schedules against the detection server (zero-loss drain, quarantine,
# resume, idle eviction) plus the fault layer's own tests and the sdsload
# client's failure-path tests.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject ./internal/server ./cmd/sdsload

# Regenerate every golden fixture (conformance transcripts, figure walk-
# throughs, CLI outputs). Only packages that import internal/golden register
# the -update flag, so the target lists them explicitly.
goldens:
	$(GO) test -count=1 \
		./cmd/evaluate ./cmd/sensitivity ./cmd/detectd \
		./internal/server ./internal/experiment -update

# Verify every headline claim of the paper (PASS/FAIL, nonzero exit on FAIL).
verify:
	$(GO) run ./cmd/report

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
# evaluate and sensitivity fan their run grids out over all CPUs by default
# (-parallel 0); results are bit-identical at any worker count.
repro:
	$(GO) run ./cmd/measure -all -intervals 20
	$(GO) run ./cmd/evaluate -all -runs 20 -parallel 0
	$(GO) run ./cmd/sensitivity -all -runs 10 -parallel 0

# End-to-end smoke of the sdsd deployment path: launch the server, replay
# attacked VM streams at it with sdsload, assert zero loss + alarms + drain.
smoke:
	./scripts/smoke_sdsd.sh

# End-to-end smoke of the datacenter simulation: build the cloudsim CLI,
# compare mitigation policies on a small cluster, assert a quarantine is
# scored and the JSON output is deterministic across invocations.
smoke-cloudsim:
	./scripts/smoke_cloudsim.sh

# The evasion-margin grid: run the reduced tournament through the evaluate
# CLI at two worker counts and assert byte-identical JSON (the determinism
# half of the golden fixtures' promise).
smoke-evasion:
	./scripts/smoke_evasion.sh

# Run every example program. Each is a standalone main over the public sds
# API, and dynamicapp exits non-zero when its attack goes undetected, so
# this is an end-to-end check that `go build ./...` alone does not give.
examples:
	@for d in examples/*/; do echo "run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Short fuzz pass over the feed parsers — CSV and the binary frame codec —
# plus the evasive-schedule composition (Intensity/MeanIntensity must stay
# finite, clamped and loop-free for arbitrary strategy knobs; one fuzzer
# counterexample is already pinned in testdata/fuzz), and the block-mean
# moving averager (emission schedule, exact window mean, Push ≡ PushBlock).
fuzz-smoke:
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzParseLine -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzReader -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzRoundTrip -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzBinReader -fuzztime=5s
	$(GO) test ./internal/feed -run=NONE -fuzz=FuzzBinRoundTrip -fuzztime=5s
	$(GO) test ./internal/attack -run=NONE -fuzz=FuzzStrategyIntensity -fuzztime=5s
	$(GO) test ./internal/timeseries -run=NONE -fuzz=FuzzMovingAverager -fuzztime=5s

# The code-size count a simplification reports before and after: the
# non-blank, non-comment lines of the non-test Go files outside bench/ and
# .bench_build/.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
		| xargs cat | grep -vE '^\s*(//.*)?$$' | wc -l

clean:
	rm -f cover.out test_output.txt
