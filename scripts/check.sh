#!/usr/bin/env bash
# check.sh — the CI gate. Everything a PR must pass before merge:
# formatting, vet, the project linters (oramlint), build, the full test
# suite in both build flavors (default and -tags=invariants), the race
# detector over the packages with scheduler/simulator
# concurrency-sensitive state, and short fuzz smokes of the trace codec,
# the sealer, the checkpoint loader and the wire request decoder.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== doc identifiers =="
# Every backticked `Test…`/`Benchmark…`/`Fuzz…` name in the docs must
# be (a prefix of) a function some *_test.go defines, so a doc cannot
# cite a test that was deleted or renamed.
test_funcs=$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func //')
for name in $(grep -ohE '`(Test|Benchmark|Fuzz)[A-Za-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md SECURITY.md | tr -d '`' | sort -u); do
	if ! grep -q "^$name" <<<"$test_funcs"; then
		echo "docs cite \`$name\`, which no *_test.go defines" >&2
		exit 1
	fi
done
# Every other backticked Go identifier in those docs — `Name`,
# `pkg.Name` or `Name()` — must appear, each dotted part, as a word in
# some .go file, so a doc cannot cite a type, function or field that was
# deleted or renamed. A backticked `file.go` must name an existing file.
go_words=$(grep -rhoE --include='*.go' '[A-Za-z_][A-Za-z0-9_]*' . | sort -u)
go_files=$(find . -name '*.go' -printf '%f\n' | sort -u)
for name in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?(\(\))?`' README.md DESIGN.md EXPERIMENTS.md SECURITY.md | tr -d '`' | sed 's/()$//' | sort -u); do
	if [[ $name == *.go ]]; then
		if ! grep -qxF "$name" <<<"$go_files"; then
			echo "docs cite \`$name\`, which is no .go file" >&2
			exit 1
		fi
		continue
	fi
	for part in ${name//./ }; do
		if ! grep -qxF "$part" <<<"$go_words"; then
			echo "docs cite \`$name\`, but no .go file has the word $part" >&2
			exit 1
		fi
	done
done
# Every subcommand the docs cite as `stringoram <sub>` or
# cmd/stringoram <sub> must be one stringoram's usage lists, so a doc
# cannot cite a subcommand that was renamed or removed. Without
# arguments stringoram prints its usage and exits 1.
usage_out=$(go run ./cmd/stringoram 2>&1 || true)
for sub in $(grep -ohE '(`stringoram|cmd/stringoram) [a-z0-9]+' README.md DESIGN.md EXPERIMENTS.md | awk '{print $2}' | sort -u); do
	if ! grep -qE "^  $sub( |$)" <<<"$usage_out"; then
		echo "docs cite \`stringoram $sub\`, which stringoram's usage does not list" >&2
		exit 1
	fi
done

echo "== go build =="
go build ./...

echo "== oramlint (default + invariants configs) =="
# The driver lints both build configurations in one run (it merges
# findings and cross-checks allow staleness per config); time it so
# analyzer cost regressions are visible in the check output.
lint_start=$(date +%s%N)
go run ./cmd/oramlint ./...
lint_end=$(date +%s%N)
echo "oramlint wall time: $(( (lint_end - lint_start) / 1000000 )) ms"

echo "== analyzer fixture tests (determinism, oblivious, ownership, telemetry, cross-package taint, driver) =="
go test -count=1 ./internal/analysis ./cmd/oramlint

echo "== go test =="
go test ./...

echo "== go test -tags=invariants =="
go test -tags=invariants ./...

echo "== go test -race (sched, sim, experiments) =="
go test -race ./internal/sched ./internal/sim ./internal/experiments

echo "== go test -race (server stress: 64 clients x 4 shards) =="
go test -race ./internal/server ./internal/cluster ./cmd/oramd

echo "== cluster chaos gate (kill one of 3 nodes under 64 writers, -race) =="
go test -race -count=1 -run='^TestClusterKillOneNodeChaos$' ./internal/cluster

echo "== SLO chaos gate (post-kill p99 objective on the survivors, -race) =="
go test -race -count=1 -run='^TestClusterChaosSLO$' ./internal/cluster

echo "== replication, forwarding and client-send gate (group-commit sender, in-order release, promotion fence, silent follower, lag gauge, relayed deadline, hop budget, combining flusher, failed flush, accept retry, per-shard and per-replica seal keys, -race) =="
go test -race -count=3 \
    -run='^(TestClusterPipelinedReplicationHistory|TestPromoteWaitsForReplicatedFrame|TestReplicationSilentFollowerDemoted|TestReplicationLagMeasuresOldestUnacked|TestAllocFreeReplicatedPut|TestForwardKeepsClientDeadline)$' \
    ./internal/cluster
go test -race -count=3 -run='^(TestReleaseAnswersInOrder|TestGetReadBeforeFailedSettleRefused|TestTCPServeRetriesTemporaryAcceptError|TestClientCombinesConcurrentRequests|TestClientFailedFlushFailsEveryCaller|TestShardsNeverShareKeystream|TestReplicasNeverShareKeystream|TestForwardTTLExhaustion)$' ./internal/server

echo "== obs-race gate (cluster scrapes + stitched trace under traced load, -race) =="
go test -race -count=1 -run='^(TestClusterScrapeUnderLoad|TestClusterStitchedForwardTrace)$' \
    ./internal/cluster

echo "== multi-core stress gate (concurrency-sensitive tests x20 at GOMAXPROCS 1, 2, 4) =="
# These tests read telemetry or protocol state while workers race them,
# or drive the TCP path's read loop, shard workers and writer, or the
# client's combining flusher, against each other. A single core hides a torn read or a lost wake, so the
# gate pins the core counts itself rather than inheriting the CI box's.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=20 \
	    -run='^(TestClusterScrapeUnderLoad|TestClusterStitchedForwardTrace|TestClusterFollowerAnswerForwards|TestConfigPipelineIsInert|TestScrapeConsistentUnderObserve|TestTCPStressSharedClient|TestTCPBurstSpawnsNoGoroutines|TestTCPShutdownDeliversComputedResponses|TestTCPUnreadPipelineIsBounded|TestClusterPipelinedReplicationHistory|TestPromoteWaitsForReplicatedFrame|TestReplicationSilentFollowerDemoted|TestReplicationLagMeasuresOldestUnacked|TestAllocFreeReplicatedPut|TestReleaseAnswersInOrder|TestGetReadBeforeFailedSettleRefused|TestTCPServeRetriesTemporaryAcceptError|TestClientCombinesConcurrentRequests|TestClientFailedFlushFailsEveryCaller|TestRingSeriesMatchStats)$' \
	    ./internal/cluster ./internal/server ./internal/obs
done

echo "== data-plane goldens (sealed bytes, stored slots open at their position, treetop store trace, Path op trace, checkpoint bytes, earlier checkpoints, inconsistent checkpoints, buckets wider than 64 slots refused, DRAM command stream, Path ORAM stash samples) =="
go test -count=1 -run='^(TestSealedBytesGolden|TestStoredSlotsOpenAtPosition|TestTreetopStoreTraceGolden|TestPathTraceGolden|TestRingSaveBytesGolden|TestLoadCheckpointCompat|TestLoadRejectsInconsistentBuckets|TestControllersRejectWideBuckets)$' ./internal/oram
go test -count=1 -run='^(TestCommandStreamGolden|TestPathORAMStashSamplesCollected)$' ./internal/sim

echo "== treetop cache equivalence (serial vs uncached oracle, -race) =="
# Covers Compact Bucket, sealed Y = 0 and plaintext stores: the cached
# controller must return identical data, op traces, and snapshot bytes,
# and elide exactly the cached levels from the store trace.
go test -race -count=1 -run='^TestTreetop' ./internal/oram

echo "== alloc-regression guards (data-plane hot path, scheduler Tick, loopback client ops) =="
go test -run='^TestAlloc(Free|Bound)' -count=1 ./internal/oram ./internal/cluster ./internal/sched ./internal/server

echo "== profiling entry points (every internal/oram benchmark, one iteration) =="
# README's profiling commands run these; one iteration each keeps them
# running, not just compiling.
go test -run='^$' -bench=. -benchtime=1x ./internal/oram

echo "== observability gate (alloc guards, Perfetto schema, exposition parse, one quantile source, one ring record, one event emitter, corrupt snapshots refused) =="
go test -count=1 \
    -run='^(TestFlightRecorderMatchesResult|TestObsDoesNotPerturbSimulation|TestSnapshotBitFlipRefused|TestInstrumentUpdatesAllocFree|TestRecorderEmitAllocFree|TestWriteTracePerfettoShape|TestMergeTracesAlignsClocks|TestWritePrometheusFormatAndDeterminism|TestValidateExpositionRejectsGarbage|TestQuantile|TestMetricsScrapeAllocBound|TestMetricsQuantilesMatchExposition|TestRingSeriesMatchStats|TestAllocFreeTracedUnsampled)$' \
    ./internal/obs ./internal/sim ./internal/server

echo "== examples smoke (every examples/*/ runs to completion) =="
for ex in examples/*/; do
	echo "-- $ex"
	go run "./$ex" >/dev/null
done

echo "== bench smoke =="
# bench/ is frozen outside benchmark PRs and builds against the program's
# names; a change that breaks that surface must fail here, not in the
# pipeline that runs the benchmark after merge.
go run ./bench -smoke >/dev/null

echo "== fuzz smoke (trace codec) =="
go test -run='^$' -fuzz=FuzzReadCodec -fuzztime=5s ./internal/trace

echo "== fuzz smoke (bucket seals under position nonces vs the cipher.NewGCM reference, one-slot opens) =="
go test -run='^$' -fuzz=FuzzSealBucketMatchesGCM -fuzztime=5s ./internal/oram

echo "== fuzz smoke (checkpoint loader) =="
# Minimizing a checkpoint-sized input eats the whole budget (about a
# hundred executions in 5 s against tens of thousands without), and a
# smoke wants executions.
go test -run='^$' -fuzz='^FuzzLoad$' -fuzztime=5s -fuzzminimizetime=0 ./internal/oram

echo "== fuzz smoke (wire request decoder: no panic, exact re-encoding) =="
go test -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime=5s ./internal/server

echo "check.sh: all gates passed"
