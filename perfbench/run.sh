#!/usr/bin/env bash
# Builds perfbench from source (the Go module in _src; the leading underscore
# keeps the repository's own tooling from walking into it) and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload testbed --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes, the Go build
# cache included, goes under $CARGO_TARGET_DIR (default .bench_build), so a
# run writes nothing outside the checkout. The build's own output goes to
# standard error; the benchmark's JSON result is the last line of standard
# output.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
mkdir -p "$out"
(cd "$here/_src" && go build -trimpath -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --start-unix "$EPOCHREALTIME" "$@"
