#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#
#   bash e2ebench/run.sh --workload member-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
cd "$root"
exec "$out/bin/e2ebench" "$@"
