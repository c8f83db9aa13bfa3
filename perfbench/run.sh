#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on, e.g.
#
#   bash perfbench/run.sh --workload sweep-busy-n64 --seed 0 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache and the binary stay
# under .bench_build/ in that root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
  echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
  exit 2
fi

# Everything the go command writes (build cache, module cache, temporary
# files, telemetry under the config directory) stays in .bench_build/.
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -specs perfbench/specs "$@"
