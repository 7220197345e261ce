#!/bin/sh
# loc.sh — Go lines per package, non-test and test, counted the way
# ROADMAP aim 2 counts them: `cat *.go | wc -l`, blank lines and comments
# included. Directories under testdata are skipped, as go build skips
# them: the Go files there are test fixtures, not packages of the module.
#
#   scripts/loc.sh                                    every package, then a total
#   scripts/loc.sh internal/workqueue internal/chaos  just these, then their total
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
	dirs=$*
else
	dirs=$(find . -name '*.go' -not -path './.git/*' -not -path '*/testdata/*' -exec dirname {} \; | sort -u)
fi

# lines DIR PATTERN... counts the lines of DIR's own files matching the
# find(1) name tests that follow.
lines() {
	dir=$1
	shift
	find "$dir" -maxdepth 1 -type f -name '*.go' "$@" -exec cat {} + | wc -l
}

printf '%-40s %9s %9s\n' package non-test test
total_n=0
total_t=0
for d in $dirs; do
	d=${d#./}
	n=$(lines "$d" ! -name '*_test.go')
	t=$(lines "$d" -name '*_test.go')
	printf '%-40s %9d %9d\n' "$d" "$n" "$t"
	total_n=$((total_n + n))
	total_t=$((total_t + t))
done
printf '%-40s %9d %9d\n' total "$total_n" "$total_t"
