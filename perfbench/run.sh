#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it
# with the given arguments. Run from the root of the checkout:
#
#	bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays under
# .bench_build/ in the checkout (Go build cache and temp files
# included). Outside a full checkout the build fails and so does this
# script, without printing a result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
