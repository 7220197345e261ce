#!/bin/sh
# CI tiers for the SSTD reproduction.
#
#   scripts/check.sh            tier-1: README.md + DESIGN.md within their byte budget + the five main binaries' -h flags within their count budget + the non-test lines of internal/workqueue, internal/hmm, internal/dtm and internal/obs each within its budget + gofmt + build + tests (the ROADMAP gate), TestAPIAudit among them: every top-level name under internal/ must be reachable from a program's main or the root package's examples, every exported field written by a program or another package's test, and no program may import a test helper package
#   scripts/check.sh race       tier-2: vet + full test suite under -race
#   scripts/check.sh bench      microbenchmarks -> BENCH_obs.json + BENCH_hmm.json + BENCH_wire.json; front-end layer benches (tokenizer included) printed
#   scripts/check.sh chaos      chaos soak: seeded fault-injection schedules under -race
#   scripts/check.sh wire       wire-codec smoke: round-trip/golden/v1+v2-retirement tests, a lost and a damaged telemetry ship set right by the next, worker receive-buffer tests under -race, 10s FuzzDecode, task-payload golden/order-free/cross-path/rejection tests + 10s FuzzDecodeTask, sstd-master/sstd-worker with -batch 8
#   scripts/check.sh flightrec  flight-recorder smoke: deadline-miss deep dive (FLIGHTREC_DIR keeps it) + SLO burn -> 3-lane trace (TELEMETRY_DIR keeps it)
#   scripts/check.sh sched      scheduler tier: fairness/invariant tests + contention benches -> BENCH_sched.json + 100k-claim sweep
#   scripts/check.sh accuracy   accuracy gate: SSTD rows of Tables III-V against the checked-in golden + HMM kernel equivalence (run tables and the zero step included) + the accelerated EM loop's fixed point, monotone log-likelihood and safeguard + non-finite parameters refused + pinned EM pass counts + a bounded streaming decoder + quantize-once decode + ACS grid against Time.Sub + fixed-point scores and order-free ACS sums + truth digests, decode payload goldens and the worker's series against the accumulator's + the front end's pinned claims and scores, its incremental cluster state against a rebuild, the exact minimum-overlap bounds, bounded merge, signature bound, independence window and join (and its memo) against their references, every path that reads a post's hashes against the one that read its tokens + 10s FuzzTokenize
#   scripts/check.sh all        tier-1 + tier-2
#
# scripts/benchdiff.sh wraps the bench tier with a regression gate against
# the checked-in BENCH_obs.json/BENCH_hmm.json/BENCH_wire.json/BENCH_sched.json
# baselines.
set -eu
cd "$(dirname "$0")/.."

# docBudget caps README.md + DESIGN.md together, in bytes, as loc.sh's
# total shows code size. Raising it is a decision to make in the change
# that needs it, not a fix for a failing check.
docBudget=101474

# flagBudget caps the flags sstd-master, sstd-worker, sstd, experiments
# and tracegen list under -h, summed, as docBudget caps the docs. Raising
# it is a decision to make in the change that needs it, not a fix for a
# failing check.
flagBudget=58

# The line budgets cap a package's non-test lines, as scripts/loc.sh
# counts them, one package=budget pair each. Raising one is a decision to
# make in the change that needs it, not a fix for a failing check.
#   wqBudget: the work queue is the largest package, and each of its
#   mechanisms earns its lines with a test that fails without it.
#   hmmBudget: the paper's one model, a 2-state HMM over quantized ACS
#   symbols, with no second emission family.
#   dtmBudget: the Dynamic Task Manager, whose mechanisms earn their lines
#   the same way, and whose Config holds no knob only its tests set.
#   obsBudget: the telemetry layer, whose metrics registry is the one home
#   of every metric, a worker's shipped series included.
wqBudget=4221
hmmBudget=1007
dtmBudget=1686
obsBudget=1979
lineBudgets="internal/workqueue=$wqBudget internal/hmm=$hmmBudget internal/dtm=$dtmBudget internal/obs=$obsBudget"

tier1() {
	echo "== tier-1: doc budget && flag budget && workqueue, hmm, dtm and obs line budgets && gofmt -l . && go build ./... && go test ./... =="
	docBytes=$(cat README.md DESIGN.md | wc -c)
	if [ "$docBytes" -gt "$docBudget" ]; then
		echo "README.md + DESIGN.md are $docBytes bytes, over the budget of $docBudget (scripts/check.sh)" >&2
		exit 1
	fi
	bin=$(mktemp -d)
	flags=0
	for name in sstd-master sstd-worker sstd experiments tracegen; do
		go build -o "$bin/$name" "./cmd/$name"
		n=$("$bin/$name" -h 2>&1 | grep -c '^  -' || true)
		flags=$((flags + n))
	done
	rm -rf "$bin"
	if [ "$flags" -gt "$flagBudget" ]; then
		echo "the binaries list $flags flags under -h, over the budget of $flagBudget (scripts/check.sh)" >&2
		exit 1
	fi
	for pair in $lineBudgets; do
		pkg=${pair%=*} budget=${pair#*=}
		lines=$(scripts/loc.sh "$pkg" | awk -v pkg="$pkg" '$1 == pkg { print $2 }')
		if [ "$lines" -gt "$budget" ]; then
			echo "$pkg is $lines non-test lines, over the budget of $budget (scripts/check.sh)" >&2
			exit 1
		fi
	done
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
	# and executing one, also at decode_heavy's minute-grid shape (both
	# also per report), and checking + folding its
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
	# (scale 0.05, seed 42): tokenizer, claim generator, Eq. 1 scorers, and
	# the whole Process call. Printed, not baselined: CHANGES.md carries the
	# before/after of the PR that moved them.
	echo "== bench: front end: BenchmarkNewDoc, BenchmarkAssign, BenchmarkScorePost, BenchmarkProcess =="
	go test -run '^$' -bench '^Benchmark(NewDoc|Assign|ScorePost|Process)$' -benchmem ./internal/textutil ./internal/clustering ./internal/contrib ./internal/pipeline

	bench_sched
}

# The scheduler contention baseline: push/draw, dispatch/ack and mixed
# (priority retunes + stats reads) cycles at 1/4/16/64 simulated workers
# through the one-lock pool and master, into BENCH_sched.json for the
# benchdiff gate.
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
	# Wire-codec smoke: the codec-correctness suite for wire v3 (send →
	# recv round-trip property, golden frame fixtures, the retired v1 and
	# v2 frames and unknown presence bits refused, rejection of damaged
	# frames and non-frames, batching invariants with lock-step as a window
	# of one), a real worker's telemetry ship lost or damaged in flight and
	# the master's view set right by the next, the worker's receive buffer
	# under -race (a budgeted executor
	# that outlives its budget keeps its payload, echoed outputs survive
	# the next frame, payloads cost recv no allocation), ten seconds of
	# FuzzDecode past its seed corpus with the copying and aliasing
	# decodes required to agree, then the shipped sstd-master and
	# sstd-worker binaries over TCP — the whole cluster speaking the wire
	# format end to end, lock-step and with -batch 8, and required to
	# print the same truth both ways.
	echo "== wire: round-trip/golden/v1+v2-retirement codec tests + lost/damaged telemetry ships + batching invariants =="
	go test -count=1 -run 'TestWireRoundTrip|TestRetriedMarkStaysOffTheWire|TestRoundTripCovers|TestGolden|TestWireOldVersionsRetired|TestLostTelemetryShipRecoversOnNext|TestDamagedTelemetryShipRecoversOnNext|TestBatch|TestPartialBatch|TestLockstepIsWindowOfOne|TestMidBatch|TestWireFrames|TestShiftBinary|TestBinary|TestNonFrame|FuzzDecode' ./internal/workqueue
	go test -race -count=1 -run 'TestArena' ./internal/workqueue
	go test -count=1 -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/workqueue
	# What travels inside the frames: the goldens of both task kinds and
	# their answers — task v3, output v2, decode v2 — with the retired task
	# v1 and v2, output v1 and decode v1 refused; the scatter task's run
	# column held to the map reference over generated chunks, its run
	# sums to the dense path and the varint reader to binary.Uvarint; the
	# order-free property (any permutation, split into 1-8 chunks and
	# arrival order: the same output, decode-task and truth bytes); the
	# worker's series against core.ACSAccumulator's, bit for bit; the
	# decoders' rejection table and a score over 1 refused at submit; the
	# three fuzz targets' seed corpora, retired and current formats; then
	# ten seconds of FuzzDecodeTask.
	go test -count=1 -run 'TestGoldenPayloadsStable|TestScatterMatchesMapReference|TestScatterRunsMatchDense|TestUvarintMatchesBinary|TestDecodersRejectMalformed|TestCodecMatchesMapReferenceBits|TestMergeOrderIndependentBits|TestWorkerSeriesMatchesAccumulator|TestSubmitJobRejectsScoreOverOne|FuzzDecodeTask|FuzzFoldOutput|FuzzTruthResult' ./internal/dtm
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
	# Scheduler tier: the fairness/invariant suite under -race
	# (chi-squared P_u tracking, low-priority starvation, FIFO within a job
	# including a cancelled hand-off, exactly-once under concurrency, the
	# allocation-free idle loop, the global quarantine cap and the DTM's
	# order-free merge), then the contention benches into
	# BENCH_sched.json, then the 100k-claim load sweep at 1/4/16 workers.
	echo "== sched: fairness + invariant tests under -race =="
	go test -race -count=1 \
		-run 'TestSchedulerWeightedFairness|TestSchedulerLowPriorityJobNotStarved|TestSchedulerCancelKeepsHandoffAtHead|TestSchedulerConcurrentExactlyOnce|TestSchedulerNextAllocFree|TestSchedulerFIFOWithinJob|TestSchedulerProperty|TestQuarantineCapIsGlobal' \
		./internal/workqueue
	go test -race -count=1 -run 'TestMergeOrderIndependentBits' ./internal/dtm
	bench_sched
	echo "== sched: 100k-claim load sweep =="
	go test -count=1 -v -run 'TestSchedulerLoadSweep100k' ./internal/workqueue
}

accuracy() {
	# The product is the decoded truth timeline: recompute the SSTD rows of
	# Tables III-V (scale 0.02, seed 7) against
	# internal/experiments/testdata/accuracy_golden.json, then the checks
	# that say why they hold — the HMM kernels against the frozen
	# reference at 1e-12 (Viterbi bit for bit, ties, zero entries and 100k
	# steps included; EM's run pass also over generated run shapes
	# and run tables at 1e-10, naming the step where the mass dies inside
	# a run, allocation-free; the kernel's plain EM pass, the map the loop
	# accelerates, taken one pass per call; the by-step posterior pass at
	# T=1 and T=100k), the
	# SQUAREM loop itself — its fit a fixed point of the plain pass, on
	# the claim series within 1e-6 of plain EM's, its log-likelihood never
	# falling as passes are added, passes from θ′ lost to θ1 falling back
	# to θ2, steps off the simplex refused — every kernel refusing a NaN,
	# infinite or negative parameter, the pinned EM pass counts on the
	# benchmark's series, the run-length and run-table premise of the run
	# pass on the same series, a streaming decoder holding no more than its
	# window over ten thousand appends, DecodeInto's
	# quantize-once Viterbi against TrainWarmScratch + DecodeWithScratch,
	# and the engine's, which decodes a claim it just refit from the fit's
	# symbols, against a fresh quantization of the same window,
	# quantization against the first-edge loop (NaN, ±Inf, values on an
	# edge), the ACS grid's integer slot mapping against the Time.Sub definition
	# it replaced, the one fixed-point score (rounding, ties to even, and
	# |score| > 1 refused by Ingest) and the order-free ACS series, and the
	# bits the distributed decode must keep: the eight truth digests, the
	# decode payload goldens (the retired Gaussian kind refused), the
	# order-free merge and the worker's series against the accumulator's.
	# Then what the claims themselves rest on: every post's claim and
	# scores on the three profiles (TestFrontEndGolden), the claim
	# generator's incremental state — counts, member masks, distances, row
	# maxima, farthest pair, centroid — against a from-scratch rebuild
	# after every step, and the threshold tests that stop each set merge
	# early: the least shared count for a similarity (every count of sets
	# of up to 64 hashes, odd thresholds and NaN included) and for the
	# join's distance, with the clusterer's memo of it for every pair of
	# sizes below 64, the bounded merge against the full count on random
	# sets, the signature bound against the true count, and the
	# time-ordered independence window against the arrival-ordered one it
	# replaced on random streams. Each path that reads a post's hashes is
	# held to the one that read its tokens: the Doc's hashes to Hash of
	# each token, the byte-lane member counts to the intersections at 1-64
	# and 70 members and for posts of 256 tokens and more, hashed attitude
	# phrases to string ones, and Naive Bayes over hashes to Naive Bayes
	# over token strings, bit for bit. Last, ten seconds of FuzzTokenize
	# past its seed corpus: the tokenizer must build the strings.Fields
	# reference's Doc on every input.
	echo "== accuracy: Tables III-V golden + kernel equivalence + truth bits + front-end decisions =="
	go test -count=1 -v -run 'TestAccuracyGolden' ./internal/experiments
	go test -count=1 -run 'MatchesReference|TestViterbiExactAtTheEdges|TestPairPass|TestDiscreteBaumWelchWSZeroAllocs|TestNonFiniteParametersRefused|TestSquaremReachesThePlainFixedPoint|TestSquaremLogLikelihoodNeverFalls|TestSquaremSafeguardFallsBack|TestExtrapolateRefusesStepsOffTheSimplex' ./internal/hmm
	go test -count=1 -v -run 'TestEMIterationCountsPinned|TestSquaremFixedPointOnClaimSeries|TestStreamingDecoderMemoryBounded|TestRunCompressionGate|TestDecodeIntoMatchesTrainThenDecode|TestEngineDecodeMatchesRequantized|TestQuantizeMatchesFirstEdgeLoop|TestGridIndexMatchesSub|TestFixedScoreRoundsAndRefuses|TestACSSeriesOrderFree|TestIngestRejectsScoreOverOne' ./internal/core
	go test -count=1 -run 'TestTruthDigestsMatchParent|TestGoldenPayloadsStable|TestMergeOrderIndependentBits|TestWorkerSeriesMatchesAccumulator' ./internal/dtm
	go test -count=1 -v -run 'TestFrontEndGolden|TestIncrementalMatchesFromScratch|TestWithinExact|TestJoinNeedMatchesWithin|TestSharedCountsMatchIntersections|TestMinOverlap|TestOverlap|TestDocHashes|TestSharedBoundNeverBelowCount|TestIndependenceMatchesReference|TestAttitudeMatchesStringReference|TestNaiveBayesMatchesTokenReference|FuzzTokenize' ./internal/pipeline ./internal/clustering ./internal/textutil ./internal/nlp
	go test -count=1 -run '^$' -fuzz FuzzTokenize -fuzztime 10s ./internal/textutil
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
