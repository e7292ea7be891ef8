#!/usr/bin/env bash
# Builds swperf and runs it from the root of a checkout, passing every
# argument through:
#
#   bash cmd/swperf/run.sh --workload flows-durable --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, both binaries, the servers' state
# directories and span files all stay under .bench_build/ in the checkout,
# and the module proxy is off, so a run neither reads the network nor
# writes outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/swserve/main.go || ! -f cmd/swperf/go.mod ]]; then
	echo "swperf: run from the repository root (needs go.mod, cmd/swserve and cmd/swperf)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout;
# GOENV=off ignores the user's `go env -w` settings.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C cmd/swperf build -o "$out/swperf" .
exec "$out/swperf" -root "$PWD" -build-dir "$out" "$@"
