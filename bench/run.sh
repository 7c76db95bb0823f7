#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload draw-32B --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1                # every workload, one result file
#
# Everything the build and the run leave behind stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
