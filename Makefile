# Developer and CI entry points. `make check` is the full local gate and
# what the GitHub Actions workflow mirrors; the other targets are the
# common local loops.

GO ?= go

.PHONY: all build test test-race vet lint lint-json lint-fix bench-quick bench-batch bench-smoke bench-ladder swbench-quick smoke-e18 smoke-e19 serve-smoke recover-smoke swperf-smoke fuzz-smoke check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass. Why each package is (or is not) in the list:
#   .                      public sharded wrappers: auto-flush queries and
#                          footprint accessors race ingest by design
#   ./internal/parallel    the goroutine-parallel ingest machinery itself
#   ./internal/ehist       read-only EstimateAt under a read lock,
#                          hammered concurrently with ingest
#   ./internal/serve       HTTP layer: concurrent ingest+query, applier
#                          goroutine, snapshot/close interleavings
#   ./internal/weighted    single-writer substrates, but the rng-free-query
#                          contract means post-ingest reads are concurrent
#                          -safe; TestWORConcurrentReadOracle pins that
#   ./internal/window      exact materializers: serve reads a fullwindow
#                          substrate's footprint under its read lock from
#                          many goroutines; TestBuffersConcurrentReads
#                          pins the read paths
#   ./internal/slab        sync.Pool-backed slice recycling shared by every
#                          tenant ingest request; TestSlicePoolConcurrent
#                          hammers Get/Put from many goroutines
# internal/serve includes TestTenantFirstArrivalRace, the fabric's
# concurrent lazy-instantiation hammer (exactly one sampler per tenant).
# Not listed: internal/core and internal/xrand are single-goroutine by
# contract with no concurrent tests to exercise (callers synchronize);
# internal/stream and internal/substrate are data/plumbing with no
# goroutines; cmd/* are covered by the smoke targets.
test-race:
	$(GO) test -race . ./internal/parallel/... ./internal/ehist/... ./internal/serve/... ./internal/slab/... ./internal/weighted/... ./internal/window/...

vet:
	$(GO) vet ./...

# swlint: the repo's own go/analysis gate (norandquery, detrand,
# lockorder, errsurface, wordsacct, noalias, substratecov, nilness,
# unusedwrite — see internal/lint and DESIGN.md §8). Built from source so
# the gate always matches the checked-out tree, then run through
# `go vet -vettool` so it inherits vet's package loading, caching, and
# cross-package facts. Must pass with zero unexplained //swlint:allow
# directives; fixture tests in internal/lint prove it fails on violations.
lint:
	$(GO) build -o bin/swlint ./cmd/swlint
	$(GO) vet -vettool=$(CURDIR)/bin/swlint ./...

# Same gate, machine-readable: vet's -json stream rendered to
# file:line:col lines (what editors and the CI problem matcher parse).
# vet writes the -json stream to stderr (hence the 2>&1) and always exits
# 0 in that mode, so `swlint render` owns the exit code.
lint-json:
	$(GO) build -o bin/swlint ./cmd/swlint
	$(GO) vet -vettool=$(CURDIR)/bin/swlint -json ./... 2>&1 | bin/swlint render

# Apply every suggested fix the analyzers offer (today: noalias wraps an
# aliasing return in an append copy). CI runs this followed by
# `git diff --exit-code` as the drift gate: fixes must already be applied.
lint-fix:
	$(GO) build -o bin/swlint ./cmd/swlint
	$(GO) vet -vettool=$(CURDIR)/bin/swlint -json ./... 2>&1 | bin/swlint applyfixes

# The weighted timestamp-window experiment at CI scale: exercises the
# tentpole end to end (skyband + embedded ehist + query-time expiry).
smoke-e18:
	$(GO) run ./cmd/swbench -quick -e E18

# The sharded weighted experiment at CI scale: weight-aware dispatch,
# exact cross-shard WOR merge, per-shard ehist-over-weights oracles.
smoke-e19:
	$(GO) run ./cmd/swbench -quick -e E19

# The serving layer end to end: start swserve in-process, ingest over HTTP
# (JSON + NDJSON), query every endpoint including the error surface, and
# diff the full transcript against the golden (hermetic — no curl/ports).
# Regenerate after intended changes with:
#   $(GO) run ./cmd/swserve -smoke > cmd/swserve/testdata/smoke.golden
serve-smoke:
	$(GO) run ./cmd/swserve -smoke -golden cmd/swserve/testdata/smoke.golden

# Durability end to end (DESIGN.md §10): the kill-and-recover battery
# (snapshot + WAL-tail replay vs an uninterrupted control, bit-for-bit
# over HTTP), the wire snapshot/restore round trip, and the
# snapshot-while-ingesting hammer — all under the race detector.
recover-smoke:
	$(GO) test -race -count=1 -run 'TestKillAndRecover|TestHTTPSnapshotRestoreRoundTrip|TestSnapshotWhileIngesting' ./internal/serve/

# The benchmark's own smoke test and analyzers. cmd/swperf is a nested
# module (its go.mod points back at the root), so the root `go test ./...`
# and `make lint` never reach it, yet it imports internal/serve; `go -C`
# runs both inside that module. The smoke test runs all four workloads at
# -scale 0.01 with every output check on.
swperf-smoke:
	$(GO) build -o bin/swlint ./cmd/swlint
	$(GO) -C cmd/swperf test ./...
	$(GO) -C cmd/swperf vet -vettool=$(CURDIR)/bin/swlint ./...

# The network-decoder and WAL-codec fuzz targets, each for a fixed 10 s
# (go test runs one fuzz target per invocation): handler status/count
# property, recognizer-vs-encoding/json decode diff, WAL encoder vs
# json.Marshal, the /samplers and /fabrics registration property (201 and
# listed, or 4xx and the listing unchanged), and the snapshot decoder
# behind POST /restore (an error or an instance that takes three arrivals
# and a query, never a panic). Every target's minimization is bounded to
# 100 calls per new input: unbounded, a target can spend most of its 10 s
# shrinking the new inputs its first seconds found instead of mutating.
# Their seed corpora also run on every plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIngestHandler$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzIngestDecodeDiff$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecordDiff$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRegisterHandler$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreInstance$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/serve/

# Fast benchmark smoke: fixed iteration counts so CI time is bounded.
bench-quick:
	$(GO) test -run xxx -bench . -benchtime 10000x ./...

# The batched-vs-looped ingest comparison behind BENCH_1.json.
bench-batch:
	$(GO) test -run xxx -bench 'BenchmarkBatch_' -benchtime 300000x .

# All statistical experiments at reduced trial counts.
swbench-quick:
	$(GO) run ./cmd/swbench -quick

# Benchmark smoke: the key batched-ingest, HTTP, shard-query, request
# decode and WAL encode benchmarks, then the tenant ingest/footprint
# benchmarks with -short (skips the 1M population), one iteration each.
# Verifies the perf machinery runs, not that it is fast; swperf-smoke
# drives the serving routes themselves under load.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkHTTP|BenchmarkBatch_|SampleAt|BenchmarkIngestDecode|BenchmarkWALEncode' -benchtime 1x ./internal/serve/ .
	$(GO) test -run xxx -bench 'BenchmarkTenant' -benchtime 1x -short ./internal/serve/

# The benchmark's per-layer ladder (BENCHMARK.json, cmd/swperf --trace 1)
# for every workload at seed 7: one JSON line per layer metric, the rows a
# perf change reports before and after. About 4 minutes, so not part of
# `make check`; each run's full output stays in .bench_build/.
LADDER_WORKLOADS := flows-durable bulk-ndjson query-fanout tenants-zipf

bench-ladder:
	@mkdir -p .bench_build
	@for w in $(LADDER_WORKLOADS); do \
		bash cmd/swperf/run.sh --workload $$w --seed 7 --seconds 15 --trace 1 > .bench_build/ladder-$$w.jsonl; \
		st=$$?; grep '"metric"' .bench_build/ladder-$$w.jsonl; \
		[ $$st -eq 0 ] || { echo "bench-ladder: $$w failed (exit $$st)" >&2; exit $$st; }; \
	done

# lint runs right after vet/build so invariant violations fail the gate
# before the slower race and smoke stages.
check: vet build lint test test-race smoke-e18 smoke-e19 serve-smoke recover-smoke bench-smoke swperf-smoke fuzz-smoke

ci: check
