#!/usr/bin/env bash
# Runs the benchmark from the root of a checkout. The Go build cache (and
# GOPATH, when the environment sets none) live inside the checkout, so a
# run reads and writes nothing outside it and needs no network.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="${GOPATH:-$PWD/.bench_build/gopath}"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
exec go run ./cmd/bench "$@"
