#!/usr/bin/env bash
# Builds and runs the repository benchmark (see the package doc in main.go).
#
#   bash benchladder/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, temporary files, telemetry, HOME) is kept
# under .bench_build/ in the working directory, and the toolchain never
# downloads anything.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"

export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off
export CGO_ENABLED=0

if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
  BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$root/.." git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export BENCH_COMMIT
fi

(cd "$here" && go build -buildvcs=false -o "$out/benchladder" .)
exec "$out/benchladder" "$@"
