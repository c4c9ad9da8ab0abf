# Development targets. `make check` is the full gate used before
# merging: lint (gofmt + vet), build, the race-instrumented test suite,
# a doubled GOMAXPROCS sweep of the determinism tests (the most
# schedule-sensitive ones, in the execution engine) and one of
# the served plans' exact counts, the observability, chaos and HTTP
# serving gates, smoke passes over the root benchmarks, the kept
# benchrunner experiments and the benchmark spine so none of them can
# bit-rot, and short fuzzing passes. Timing tests that the race detector distorts skip themselves
# (see internal/race). Measuring is not part of the gate: performance
# is `bash benchmark/run.sh`, the paper's tables are `make paper`.

GO ?= go

.PHONY: all lint vet build test race determinism obs chaos bench bench-smoke bench-spine serve-smoke fuzz-smoke paper check

all: check

# lint fails on any file gofmt would rewrite (listing the offenders)
# and runs vet. Kept dependency-free: both tools ship with the Go
# toolchain.
lint:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The determinism tests hold execution results to the single-node
# reference and compare the metrics and trace shape of two runs. The
# engine has two sources of concurrency, whose schedule GOMAXPROCS
# varies: the per-node workers below the root (fanOut) and the root step
# the stream starts ahead on a goroutine (flatEnum). So the engine line
# runs at -cpu 1,2,4, and -count=2 reruns each setting to shake out
# schedule-dependent flakiness. The engine's fragment-read table tests
# (TestDeterminismFragmentRead: concurrent per-node reads in
# permutation order, TestDeterminismFragmentProbe: the same leaves
# trie-joined with a set of bindings, TestDeterminismFragmentMerge:
# local joins merging the leaves' sorted ranges — all against a
# brute-force oracle;
# TestDeterminismScanDeadSet: deaths a scan discovers itself, all known
# before any failover read; TestDeterminismBroadcastMerge: broadcast and
# repartition joins merging sorted inputs, and TestDeterminismTrieJoin:
# local trie joins over cycles, read leaves, non-leaf inputs and
# failover reads, both against the test-only hash fold over the same
# inputs; TestDeterminismRootHome: root scans and root local joins that
# emit each answer on its home node only, pairwise disjoint across nodes
# and together Reference, with 0–3 delta chunks and any node dead), the
# per-node helper's table (TestFanOut) and the stream tests (TestStream:
# among them TestStreamFinishEarly and TestStreamHoldsTwoRootArenas,
# which cover the step started ahead) ride the same run. The
# second line pins the served plan end to end: the exact scan, transfer
# and join counts of L1–L10 and two point reads must not move with
# GOMAXPROCS. The third pins the
# placements: each method partitions LUBM-1 five times per run to the
# same fragments (path-bmc and un-1hop seed their walks in vertex
# order, which must not come from a map range); partitioning runs on
# one goroutine, so it needs no -race.
determinism:
	$(GO) test -run 'TestDeterminism|TestFanOut|TestStream' -race -count=2 -cpu 1,2,4 ./internal/engine/...
	$(GO) test -run 'TestProbedJoinsKeepCounts$$' -count=20 -cpu 1,2,4 .
	$(GO) test -run 'TestPartitionDeterministic$$' -count=2 -cpu 1,2,4 ./internal/partition

# The observability layer's own gate: vet plus a doubled, race-
# instrumented run of the registry/trace/slow-log suites and the
# serving-path trace tests — the lock-striped registry and the
# concurrent slow-query ring are the most schedule-sensitive new code.
obs:
	$(GO) vet ./internal/obs
	$(GO) test -race -count=2 ./internal/obs
	$(GO) test -race -run 'TestObservability|TestTraceTree|TestCancellationReportsPhase|TestPositionalAlgorithm' .

# The resilience gate: a doubled, race-instrumented run of the chaos
# suite (64 goroutines injecting deterministic faults into a shared
# System, and a writer racing migrations while the serving snapshot
# must follow every epoch in order), Open racing a writer (no commit
# may fall between the placement and the first delta), plus a short
# sweep over extra fault-injection seeds — for the serving mix and for the
# node-failover storm that kills nodes under cached reads and recovery
# rounds. The suites read CHAOS_SEED, so a failing seed reproduces
# with `CHAOS_SEED=n go test -run TestChaosServing -race .` (or
# TestChaosFailover).
chaos:
	$(GO) test -run 'TestChaos|TestOpenRacesWrites' -race -count=2 .
	for seed in 2 3 7; do \
		CHAOS_SEED=$$seed $(GO) test -run 'TestChaosServing|TestChaosFailover' -race . || exit 1; \
	done

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# One iteration of the execution benchmarks, of the point reads (P1 and
# P2 through RunStream, with allocations — a regression in what a point
# read pays beyond its rows shows here without the spine), of cold
# planning (L7, L9 and L10 through Run with no plan cache, with
# allocations — the enumerator's allocation diet shows here), of plan
# enumeration alone (random tree, dense and cycle join graphs, and L9
# and L10 under 2f on LUBM-10 statistics, L10 also with GOMAXPROCS
# concurrent callers, at least two; every case records into one
# opt.Instruments as sparqld does, with allocations), of
# statistics collection (L3–L10 through the tracker, with allocations —
# a pattern that falls back to a scan shows here) and of the
# store build (LUBM-10 under hash-so through engine.New, with
# allocations — a build-time regression shows here too), of the local
# star joins (L7's and L8's ?x stars at LUBM-10, merged and folded, with
# allocations), of 2f's multi-variable local joins (L7–L10's local
# subqueries at LUBM-10, trie-joined and folded, with allocations), of
# the broadcast joins (L8's two and L10's on ?z at LUBM-10, merged and
# folded, with allocations), of the root's emission (S2, J1, SP and F2
# at LUBM-10 through ExecuteStream and a full drain, with allocations
# and the flat and distinct rows per query), of the result
# encoders (LUBM-1 rows shaped like S2 and J1 in JSON and TSV, with
# encode ns/row and body B/row), of the set-up layers (the N-Triples
# load of LUBM-10 from memory, and each method's Partition of LUBM-10 on
# ten nodes, with allocations) plus a quick pass
# of the node-failover experiment: catches compile or runtime breakage
# in the bench harness without measuring anything (its output shows
# whether every failure stayed typed and recovery restored full
# service). Quick runs write no JSON artifact.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkExecute -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkPointRead -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkColdPlan -benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkOptimize$$' -benchtime=1x .
	$(GO) test -run='^$$' -bench=BenchmarkCollectTracked -benchtime=1x ./internal/stats
	$(GO) test -run='^$$' -bench=BenchmarkStoreBuild -benchtime=1x ./internal/engine
	$(GO) test -run='^$$' -bench=BenchmarkStarJoin -benchtime=1x ./internal/engine
	$(GO) test -run='^$$' -bench=BenchmarkLocalJoin -benchtime=1x ./internal/engine
	$(GO) test -run='^$$' -bench=BenchmarkBroadcastJoin -benchtime=1x ./internal/engine
	$(GO) test -run='^$$' -bench=BenchmarkRootEmit -benchtime=1x ./internal/engine
	$(GO) test -run='^$$' -bench=BenchmarkEncodeRows -benchtime=1x ./internal/httpd
	$(GO) test -run='^$$' -bench=BenchmarkReadNTriples -benchtime=1x ./internal/ntriples
	$(GO) test -run='^$$' -bench=BenchmarkPartition -benchtime=1x ./internal/partition
	$(GO) run ./cmd/benchrunner -experiment failover -quick

# The benchmark spine (benchmark/, its own module) compiles against
# engine and root-package internals that PRs here may not be allowed
# to edit alongside; vet it and run its short tests so a signature
# change that breaks the seam fails the gate, not the next benchmark.
bench-spine:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The HTTP serving gate: a race-instrumented pass over the SPARQL
# protocol conformance suite, then the smoke test — one server on a
# random port serving a mixed workload (cache hits and misses, an
# overload burst, a mid-stream client disconnect), a clean shutdown
# and a zero-goroutine-leak check. Serving latency over a real sparqld
# is the spine's warm-mix and result-heavy workloads.
serve-smoke:
	$(GO) test -race -count=1 ./internal/httpd
	$(GO) test -race -run TestServeSmoke -count=2 ./internal/httpd

# Short fuzzing passes over the SPARQL parser, the N-Triples reader,
# the plan-cache fingerprinter, the result encoder (held to
# encoding/json byte for byte) and the HTTP request decoder (methods,
# media types, Accept headers, parameters and bodies: a typed rejection
# or a request bounded exactly as asked), seeded from the checked-in
# corpora and the tests' own seeds. 5 s each: enough to replay the corpus and
# mutate a little, fast enough for the gate.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=5s ./internal/sparql
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=5s ./internal/ntriples
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalize$$' -fuzztime=5s ./internal/querygraph
	$(GO) test -run='^$$' -fuzz='^FuzzEncodeTerm$$' -fuzztime=5s ./internal/httpd
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=5s ./internal/httpd

# The paper reproduction at full scale: Tables III–VII, Figs. 6–8, the
# pruning-rule ablation and the two cost-model checks, under the
# paper's 600 s optimization cap. Takes hours on a small box; tier-1
# and `make check` only ever run the quick passes.
paper:
	$(GO) run ./cmd/benchrunner -experiment all

check: lint build race determinism obs chaos bench-smoke bench-spine serve-smoke fuzz-smoke
