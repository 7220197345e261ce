#!/bin/sh
# CI tiers for the SSTD reproduction.
#
#   scripts/check.sh            tier-1: gofmt + build + tests (the ROADMAP gate)
#   scripts/check.sh race       tier-2: vet + full test suite under -race
#   scripts/check.sh bench      microbenchmarks -> BENCH_obs.json + BENCH_hmm.json + BENCH_wire.json; front-end layer benches printed
#   scripts/check.sh chaos      chaos soak: seeded fault-injection schedules under -race
#   scripts/check.sh wire       wire-codec smoke: round-trip/golden/v1-retirement tests, worker receive-buffer tests under -race, 10s FuzzDecode, task-payload property/rejection tests + 10s FuzzDecodeTask, sstd-master/sstd-worker with -batch 8
#   scripts/check.sh flightrec  flight-recorder smoke: deadline-miss deep dive (FLIGHTREC_DIR keeps it) + SLO burn -> 3-lane trace (TELEMETRY_DIR keeps it)
#   scripts/check.sh sched      sharded-scheduler tier: fairness/invariant tests + contention benches -> BENCH_sched.json + 100k-claim sweep
#   scripts/check.sh accuracy   accuracy gate: SSTD rows of Tables III-V against the checked-in golden + HMM kernel equivalence + ACS grid against Time.Sub + truth digests and decode payload goldens
#   scripts/check.sh all        tier-1 + tier-2
#
# scripts/benchdiff.sh wraps the bench tier with a regression gate against
# the checked-in BENCH_obs.json/BENCH_hmm.json/BENCH_wire.json/BENCH_sched.json
# baselines.
set -eu
cd "$(dirname "$0")/.."

tier1() {
	echo "== tier-1: gofmt -l . && go build ./... && go test ./... =="
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt -l names:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	go build ./...
	go test ./...
}

race() {
	echo "== tier-2: go vet ./... && go test -race ./... =="
	go vet ./...
	go test -race ./...
}

# bench_json flattens `go test -bench` output on stdin into a JSON array so
# CI can diff per-commit costs without reparsing raw output.
bench_json() {
	awk '
		BEGIN { print "["; n = 0 }
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			printf "%s  {\"name\":\"%s\",\"iterations\":%s", (n++ ? ",\n" : ""), name, $2
			for (i = 3; i < NF; i++) {
				if ($(i + 1) == "ns/op") printf ",\"ns_per_op\":%s", $i
				if ($(i + 1) == "B/op") printf ",\"bytes_per_op\":%s", $i
				if ($(i + 1) == "allocs/op") printf ",\"allocs_per_op\":%s", $i
				if ($(i + 1) == "ns/report") printf ",\"ns_per_report\":%s", $i
			}
			printf "}"
		}
		END { print "\n]" }
	'
}

bench() {
	echo "== bench: go test -bench on internal/obs, internal/obs/flightrec, internal/obs/tsdb and internal/workqueue =="
	# The workqueue run pins the regex to the observability benches; the
	# wire-protocol benches (BenchmarkWire*) get their own baseline below.
	out=$(
		go test -run '^$' -bench . -benchmem ./internal/obs ./internal/obs/flightrec ./internal/obs/tsdb
		go test -run '^$' -bench '^BenchmarkStageSpan' -benchmem ./internal/workqueue
	)
	echo "$out"
	echo "$out" | bench_json >BENCH_obs.json
	echo "wrote BENCH_obs.json ($(grep -c '"name"' BENCH_obs.json) benchmarks)"

	# The wire-protocol baseline: frame encode/decode costs for a traced
	# task, result and 8-task batch (the Eq. 10 transfer term) plus
	# end-to-end tasks/sec through one master connection — lock-step vs
	# batched, on a raw pipe (internal/workqueue) and across a
	# 250µs-per-frame delay link (internal/chaos), where batching's
	# amortization is the headline ratio. internal/dtm adds what goes
	# inside the frame: encoding a payload_heavy-sized job's task payloads
	# and executing one (both also per report), and checking + folding its
	# output; then, at both workloads' series lengths, encoding a job's decode task, executing it
	# (next to the bare decode kernel on the same series) and expanding its
	# answer.
	echo "== bench: go test -bench '^BenchmarkWire' on internal/workqueue, internal/chaos and internal/dtm =="
	out=$(go test -run '^$' -bench '^BenchmarkWire' -benchmem ./internal/workqueue ./internal/chaos ./internal/dtm)
	echo "$out"
	echo "$out" | bench_json >BENCH_wire.json
	echo "wrote BENCH_wire.json ($(grep -c '"name"' BENCH_wire.json) benchmarks)"

	# The HMM kernel + decode-path baseline: the *Seed benchmarks replay the
	# frozen pre-rewrite kernels (internal/hmm/hmmtest) on identical inputs,
	# so each BENCH_hmm.json snapshot carries its own before/after pair
	# measured on the same machine.
	echo "== bench: go test -bench on internal/hmm and internal/core =="
	out=$(go test -run '^$' -bench . -benchmem ./internal/hmm ./internal/core)
	echo "$out"
	echo "$out" | bench_json >BENCH_hmm.json
	echo "wrote BENCH_hmm.json ($(grep -c '"name"' BENCH_hmm.json) benchmarks)"

	# The raw-post front end, layer by layer over one fixed Boston slice
	# (scale 0.05, seed 42): claim generator, Eq. 1 scorers, and the whole
	# Process call. Printed, not baselined: CHANGES.md carries the
	# before/after of the PR that moved them.
	echo "== bench: front end: BenchmarkAssign, BenchmarkScorePost, BenchmarkProcess =="
	go test -run '^$' -bench '^Benchmark(Assign|ScorePost|Process)$' -benchmem ./internal/clustering ./internal/contrib ./internal/pipeline

	bench_sched
}

# The sharded-scheduler contention baseline: push/draw, dispatch/ack and
# mixed (priority retunes + stats reads) cycles at 1/4/16/64 simulated
# workers, each against the frozen single-mutex implementation
# (sched_baseline_test.go) in the same snapshot — so the checked-in
# BENCH_sched.json carries its own before/after pair and the ≥4×
# 16-worker scheduler ratio is verifiable from one file.
bench_sched() {
	echo "== bench: go test -bench '^BenchmarkScheduler' on internal/workqueue =="
	out=$(go test -run '^$' -bench '^BenchmarkScheduler' -benchmem ./internal/workqueue)
	echo "$out"
	echo "$out" | bench_json >BENCH_sched.json
	echo "wrote BENCH_sched.json ($(grep -c '"name"' BENCH_sched.json) benchmarks)"
}

chaos() {
	# The soak drives an in-process N-worker cluster through seeded fault
	# schedules (crash storm, 30% drop, corrupt-frame burst) and asserts no
	# task is lost, no goroutine leaks, and the fault plan replays
	# identically. Seeds are fixed for reproducibility; override with
	# CHAOS_SEED=<n> to chase a failure — the failing test prints the exact
	# command to re-run it.
	echo "== chaos: seeded fault-injection soak under -race =="
	go test -race -count=1 -v -run 'TestChaosSoak' ./internal/chaos
	# A job sent a task twice, or refused part-way, keeps its payload buffer
	# out of the pool, and the buffers jobs do share carry intact bytes
	# under a drop plan; the master marks requeued and quarantined results.
	go test -race -count=1 -run 'TestDecodedTruthIdenticalUnderChaos|TestDegradedJobCompletion|TestHungTaskDegradesJob|TestTCPWorkerDeathRequeuesSameBits|TestLostDecodeTaskFailsJob|TestRecycledBuffersUnderChaos|TestRefusedSubmitNeverRecycles' ./internal/dtm
	go test -race -count=1 -run 'TestRequeueBackoffBoundsRetryRate|TestQuarantineLifecycle|TestWorkerLossRequeuesTask' ./internal/workqueue
}

wire() {
	# Wire-codec smoke: the codec-correctness suite for wire v2 (send →
	# recv round-trip property, golden frame fixtures, the retired v1
	# frames and unknown presence bits refused, rejection of damaged frames
	# and non-frames, batching invariants with lock-step as a window of
	# one), the worker's receive buffer under -race (a budgeted executor
	# that outlives its budget keeps its payload, echoed outputs survive
	# the next frame, payloads cost recv no allocation), ten seconds of
	# FuzzDecode past its seed corpus with the copying and aliasing
	# decodes required to agree, then the shipped sstd-master and
	# sstd-worker binaries over TCP — the whole cluster speaking the wire
	# format end to end, lock-step and with -batch 8, and required to
	# print the same truth both ways.
	echo "== wire: round-trip/golden/v1-retirement codec tests + batching invariants =="
	go test -count=1 -run 'TestWireRoundTrip|TestRetriedMarkStaysOffTheWire|TestRoundTripCovers|TestGolden|TestWireV1Retired|TestBatch|TestPartialBatch|TestLockstepIsWindowOfOne|TestMidBatch|TestWireFrames|TestShiftBinary|TestBinary|TestNonFrame|FuzzDecode' ./internal/workqueue
	go test -race -count=1 -run 'TestArena' ./internal/workqueue
	go test -count=1 -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/workqueue
	# What travels inside the frames: the goldens of both task kinds and
	# their answers (the retired task v1 refused), the scatter task's run
	# column held to the map reference over generated chunks, the decoders'
	# rejection table and the three fuzz targets' seed corpora, then ten
	# seconds of FuzzDecodeTask.
	go test -count=1 -run 'TestGoldenPayloadsStable|TestScatterMatchesMapReference|TestDecodersRejectMalformed|TestCodecMatchesMapReferenceBits|FuzzDecodeTask|FuzzFoldOutput|FuzzTruthResult' ./internal/dtm
	go test -count=1 -run '^$' -fuzz FuzzDecodeTask -fuzztime 10s ./internal/dtm
	echo "== wire: sstd-master + 2 sstd-workers, -batch 8 against lock-step =="
	go test -count=1 -v -run 'TestCLIMasterTruthIndependentOfWorkerCount' .
}

# trace_dir prints the directory a smoke's trace is kept in — the one the
# caller named (CI points it somewhere uploadable) or a fresh temporary
# one — emptied of earlier traces.
trace_dir() {
	dir="${1:-$(mktemp -d)}"
	mkdir -p "$dir"
	rm -f "$dir"/flightrec-*.trace.json
	echo "$dir"
}

flightrec() {
	# Flight-recorder smoke, both end-to-end tests. The deep dive: a
	# 2-worker cluster runs jobs with a 1ns deadline no real job can meet,
	# so the deadline-miss burst trips the process recorder; the test
	# asserts the HMM kernel-phase and codec frame probe events nest under
	# the right spans, each once, on the master's lane. The SLO burn: the
	# same cluster with the telemetry plane armed and a recorder per worker
	# burns its deadline error budget in both windows and trips the
	# master's recorder, whose gather step freezes both workers over the
	# wire — ONE Chrome trace with master and both workers on distinct
	# lanes, while the test reads /query, /slo and /debug/flightrec. The
	# greps hold the files they leave in FLIGHTREC_DIR and TELEMETRY_DIR
	# to the same.
	echo "== flightrec: deadline-miss deep dive + SLO burn to a 3-lane trace (2 workers) =="
	dir=$(trace_dir "${FLIGHTREC_DIR:-}")
	tdir=$(trace_dir "${TELEMETRY_DIR:-}")
	FLIGHTREC_DIR="$dir" TELEMETRY_DIR="$tdir" go test -count=1 -v \
		-run 'TestFlightRecorderDeadlineMissDeepDive|TestClusterTelemetryPlaneEndToEnd' ./internal/dtm
	dump=$(ls "$dir"/flightrec-*.trace.json | head -n 1)
	test -s "$dump"
	grep -q '"hmm\.' "$dump"
	grep -q '"codec\.' "$dump"
	echo "flightrec deep dive OK: $dump ($(wc -c <"$dump") bytes)"
	dump=$(ls "$tdir"/flightrec-*.trace.json | head -n 1)
	test -s "$dump"
	grep -q '"master"' "$dump"
	grep -q '"host pool-worker-0"' "$dump"
	grep -q '"host pool-worker-1"' "$dump"
	echo "3-lane trace OK: $dump ($(wc -c <"$dump") bytes)"
}

sched() {
	# Sharded-scheduler tier: the fairness/invariant suite under -race
	# (chi-squared P_u tracking across shards, cold-shard starvation,
	# exactly-once under concurrency, the allocation-free idle loop and the
	# DTM sharded-merge determinism), then the contention benches into
	# BENCH_sched.json, then the 100k-claim load sweep at 1/4/16 workers.
	echo "== sched: fairness + invariant tests under -race =="
	go test -race -count=1 \
		-run 'TestSchedulerWeightedFairnessAcrossShards|TestSchedulerColdShardNotStarved|TestSchedulerConcurrentExactlyOnce|TestSchedulerNextAllocFree|TestSchedulerFIFOWithinJob|TestSchedulerProperty' \
		./internal/workqueue
	go test -race -count=1 -run 'TestMergeOrderIndependentBits|TestMergeFailedTaskUnblocksShard' ./internal/dtm
	bench_sched
	echo "== sched: 100k-claim load sweep =="
	go test -count=1 -v -run 'TestSchedulerLoadSweep100k' ./internal/workqueue
}

accuracy() {
	# The product is the decoded truth timeline: recompute the SSTD rows of
	# Tables III-V (scale 0.02, seed 7) against
	# internal/experiments/testdata/accuracy_golden.json, then the checks
	# that say why they hold — both emission families' kernels against the
	# frozen reference at 1e-12, the pinned EM iteration counts on the
	# benchmark's series, the ACS grid's integer slot mapping against the
	# Time.Sub definition it replaced, and the bits the distributed decode
	# must keep: the eight truth digests and the decode payload goldens
	# (the Gaussian `flips` truth among them).
	echo "== accuracy: Tables III-V golden + kernel equivalence + truth bits =="
	go test -count=1 -v -run 'TestAccuracyGolden' ./internal/experiments
	go test -count=1 -run 'MatchesReference|TestPairPass' ./internal/hmm
	go test -count=1 -run 'TestEMIterationCountsPinned|TestGridIndexMatchesSub' ./internal/core
	go test -count=1 -run 'TestTruthDigestsMatchParent|TestGoldenPayloadsStable' ./internal/dtm
}

case "${1:-tier1}" in
tier1) tier1 ;;
race) race ;;
bench) bench ;;
chaos) chaos ;;
wire) wire ;;
flightrec) flightrec ;;
sched) sched ;;
accuracy) accuracy ;;
all)
	tier1
	race
	;;
*)
	echo "usage: $0 [tier1|race|bench|chaos|wire|flightrec|sched|accuracy|all]" >&2
	exit 2
	;;
esac
