#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it. Run it from the repository
# root:
#
#   bash e2ebench/run.sh --workload session-10k --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and the temporary files of a
# run stay under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" "$@"
