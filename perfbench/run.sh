#!/usr/bin/env bash
# Builds the benchmark and the netreld daemon from the checkout it is run
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload construct-dblp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# goes under .bench_build/perfbench in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/netreld" netrel/cmd/netreld
) >&2

exec "$out/perfbench" -netreld "$out/netreld" -tmp "$out/tmp" "$@"
