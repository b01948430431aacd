#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, with every
# build output and Go cache under .bench_build/ and the toolchain offline.
# Go telemetry is switched off there: its sidecar process would otherwise
# outlive the go command that started it.
#
#   bash bench/run.sh --workload process-miss --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh -seed 1 -out set.json          # all four workloads
#   bash bench/run.sh -compare parent.json change.json
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod || ! -d cmd/lightator-serve ]]; then
	echo "bench: go.mod or cmd/lightator-serve missing; run from a full source tree" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
