#!/bin/sh
# check.sh — the repository's verification gate, run by `make check` and
# CI: compile everything, vet, check formatting, then the full test
# suite under the race detector (the service worker pool is exercised
# concurrently).
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# gofmt over tracked files only, so the ignored .bench_build/ module
# cache that httpbench/run.sh leaves behind is never scanned.
echo "== gofmt -l"
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
    echo "gofmt: these files are not formatted:"
    echo "$unformatted"
    exit 1
fi

# staticcheck is optional locally (CI installs it); the gate still
# passes on machines without the binary rather than forcing a download.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping (CI runs it)"
fi

# govulncheck is gated the same way: run it when the binary is present,
# skip (loudly) when it is not, so air-gapped machines still pass.
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck ./..."
    govulncheck ./...
else
    echo "== govulncheck: not installed, skipping (CI runs it)"
fi

echo "== go test -race ./..."
go test -race ./...

# httpbench is its own Go module (it builds the stack it drives from
# this checkout through a replace directive), so ./... above never
# compiles it; vet and test it explicitly so an API change that breaks
# the end-to-end benchmark fails here.
echo "== httpbench: go vet + go test"
(cd httpbench && go vet ./... && go test .)

echo "== dse-smoke"
./scripts/dse_smoke.sh

echo "check: OK"
