#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload identify-100k --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the benchmark's temporary files
# all go under .bench_build, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
