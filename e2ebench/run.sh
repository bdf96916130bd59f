#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives from the checkout's sources,
# then runs it. Usage (from the repository root):
#
#   bash e2ebench/run.sh --workload oneshot|sweep|serve|scoreboard \
#       --seed N --seconds S --trace 0|1
#
# Every build product, the Go build cache and the span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/bin"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# With telemetry on (the default, "local"), the first go command of the day in
# a fresh config dir starts a detached telemetry child that outlives this
# script. The GOTELEMETRY variable is read-only, so switch it off this way;
# `go telemetry off` itself starts no child.
go telemetry off
go build -o "$out/bin/esetlm" ./cmd/esetlm >&2
go build -o "$out/bin/esebench" ./cmd/esebench >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" . && go build -o "$out/bin/rssexec" ./rssexec) >&2
exec "$out/bin/e2ebench" -bin "$out/bin" -out "$out" "$@"
