#!/bin/sh
# benchdiff.sh — microbenchmark regression gate.
#
# Re-runs the bench tier (scripts/check.sh bench) and compares every
# benchmark's ns/op against the checked-in baselines (BENCH_obs.json,
# BENCH_hmm.json, BENCH_wire.json, BENCH_sched.json). Exits non-zero if any benchmark regressed by more than
# BENCHDIFF_THRESHOLD percent (default 25), or if a baseline row names a
# benchmark this run did not produce: a deleted or renamed benchmark must
# take its row with it. Benchmarks with no baseline row are reported but
# never fail the gate. CI machines differ, but a >25% same-machine-format
# regression against the committed baseline is a signal worth breaking the
# build for.
#
# The bench run overwrites the BENCH_*.json baselines in the working
# tree with fresh numbers (same behavior as check.sh bench); use git to
# restore the baselines or commit the new ones after investigating.
set -eu
cd "$(dirname "$0")/.."

THRESHOLD="${BENCHDIFF_THRESHOLD:-25}"
BASELINES="BENCH_obs.json BENCH_hmm.json BENCH_wire.json BENCH_sched.json"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for f in $BASELINES; do
	if ! test -s "$f"; then
		echo "benchdiff: missing baseline $f (run scripts/check.sh bench and commit it)" >&2
		exit 2
	fi
	cp "$f" "$tmp/$(basename "$f").base"
done

./scripts/check.sh bench

# pairs extracts "name ns_per_op" lines from a BENCH_*.json artifact.
pairs() {
	sed -n 's/.*"name":"\([^"]*\)".*"ns_per_op":\([0-9.eE+-]*\).*/\1 \2/p' "$1"
}

fail=0
for f in $BASELINES; do
	echo "== benchdiff: $f (threshold ${THRESHOLD}%) =="
	pairs "$tmp/$(basename "$f").base" >"$tmp/base.txt"
	pairs "$f" >"$tmp/new.txt"
	awk -v thr="$THRESHOLD" '
		NR == FNR { base[$1] = $2; next }
		{
			seen[$1] = 1
			if (!($1 in base)) {
				printf "  new       %-60s %14.1f ns/op (no baseline)\n", $1, $2
				next
			}
			b = base[$1]; n = $2
			pct = (b > 0) ? (n - b) / b * 100 : 0
			flag = "ok"
			if (pct > thr) { flag = "REGRESSED"; bad = 1 }
			printf "  %-9s %-60s %12.1f -> %10.1f ns/op (%+6.1f%%)\n", flag, $1, b, n, pct
		}
		END {
			for (name in base) {
				if (!(name in seen)) {
					printf "  MISSING   %-60s (in baseline, not in this run)\n", name
					bad = 1
				}
			}
			exit bad ? 1 : 0
		}
	' "$tmp/base.txt" "$tmp/new.txt" || fail=1
done

if [ "$fail" -ne 0 ]; then
	echo "benchdiff: ns/op regression above ${THRESHOLD}%, or a baseline row with no benchmark, against committed baselines" >&2
	exit 1
fi
echo "benchdiff: no benchmark regressed more than ${THRESHOLD}%"
