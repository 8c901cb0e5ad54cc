#!/usr/bin/env bash
# Builds twserve and the benchmark program from the checkout this is run
# from (the repository root), then runs the benchmark with the given
# arguments. Every build artefact, cache and temporary file stays under
# .bench_build/ in that checkout.
#
#   bash perfbench/run.sh --workload lesson --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/twserve ]]; then
	echo "run.sh: no twserve source (go.mod, cmd/twserve) in $root; run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME points the go command's telemetry directory in there
# too; its mode file turns telemetry off, because with it on the go
# command forks a detached upload process that outlives this script.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go build -o "$out/twserve" ./cmd/twserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -twserve "$out/twserve" "$@"
