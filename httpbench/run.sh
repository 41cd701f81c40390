#!/usr/bin/env bash
# Builds the HTTP benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash httpbench/run.sh --workload api-mix --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/httpbench" && go build -o "$out/httpbench" .) >&2
exec "$out/httpbench" "$@"
