#!/bin/sh
# loc.sh — net Go line delta of the working tree against a git ref,
# split into non-test and _test.go files. Counts tracked files only
# (git diff --numstat), so a new file counts once it is added to the
# index. Run as `make loc BASE=<ref>` (default HEAD) or
# `scripts/loc.sh <ref>`.
set -eu
cd "$(dirname "$0")/.."

git diff --numstat "${1:-HEAD}" -- '*.go' | awk '
	{ k = ($3 ~ /_test\.go$/) ? "tests" : "non-test"; add[k] += $1; del[k] += $2 }
	END {
		split("non-test tests", ks, " ")
		for (i = 1; i <= 2; i++) {
			k = ks[i]
			printf "%-8s +%d/-%d (net %+d)\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
