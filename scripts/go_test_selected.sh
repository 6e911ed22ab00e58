#!/bin/sh
# go_test_selected.sh: run `go test ARGS...` and fail when a package's
# -run pattern selected no test. `go test -run X` prints
# "ok ... [no tests to run]" and exits 0 when nothing matches, so a
# pattern left behind by a renamed test would pass while checking nothing.
#
# Usage: scripts/go_test_selected.sh [go test flags] PACKAGE...
# GO names the go command (default go), as in the Makefile.
set -eu

out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
"${GO:-go}" test "$@" >"$out" 2>&1 || status=$?
cat "$out"
if [ "$status" -ne 0 ]; then
	exit "$status"
fi
if grep -q '\[no tests to run\]' "$out"; then
	echo "go-test-selected: the -run pattern selected no test in:" >&2
	grep '\[no tests to run\]' "$out" >&2
	exit 1
fi
