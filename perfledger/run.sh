#!/usr/bin/env bash
# Builds the performance ledger from source and runs it. Run from the
# repository root; every argument is passed to the ledger binary (see
# doc.go). Build products and the Go build cache stay in .bench_build/ so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

(cd "$root/perfledger" && go build -o "$build/perfledger" .)
exec "$build/perfledger" "$@"
