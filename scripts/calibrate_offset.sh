#!/bin/sh
# calibrate_offset.sh: print where the benchmark binary places
# main.calibrate and its offset within a 64-byte line. The benchmark
# scales its timings by calibrate's speed, which moves with that offset
# (PERF.md, "To add a table"), so an A/B should compare binaries whose
# offsets match.
#
# Usage: scripts/calibrate_offset.sh [REV...]
# With no REV it builds ./bench from the working tree; otherwise it builds
# ./bench from each git revision's `git archive` export. Every build goes
# to a temporary directory, removed on exit.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# report LABEL DIR: build DIR's ./bench and print LABEL, calibrate's
# address and its offset within a 64-byte line.
report() {
	(cd "$2" && go build -o "$tmp/bench.bin" ./bench)
	addr=$(go tool nm "$tmp/bench.bin" | awk '$3 == "main.calibrate" { print $1 }')
	if [ -z "$addr" ]; then
		echo "calibrate-offset: no main.calibrate symbol in $1's bench binary" >&2
		exit 1
	fi
	printf '%s main.calibrate 0x%s offset %d\n' "$1" "$addr" $((0x$addr % 64))
	rm -f "$tmp/bench.bin"
}

if [ $# -eq 0 ]; then
	report worktree .
	exit 0
fi
for rev in "$@"; do
	short=$(git rev-parse --short "$rev^{commit}")
	mkdir "$tmp/src"
	git archive "$short" | tar -x -C "$tmp/src"
	report "$rev ($short)" "$tmp/src"
	rm -rf "$tmp/src"
done
