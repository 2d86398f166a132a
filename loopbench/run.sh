#!/usr/bin/env bash
# Builds loopbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash loopbench/run.sh --workload m2_join --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/loopbench" && go build -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
