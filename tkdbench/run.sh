#!/usr/bin/env bash
# Builds cmd/tkdserver and the tkdbench driver from source, then runs the
# driver with the arguments given. Run it from the repository root:
#
#   bash tkdbench/run.sh --workload read-engine --seed 1 --seconds 30 --trace 0
#
# Everything it writes (binaries, the Go build cache, generated data, span
# files) goes under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tkdserver" || ! -f "$root/tkdbench/go.mod" ]]; then
	echo "tkdbench: run from the repository root: it builds ./cmd/tkdserver from source" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/bin/tkdserver" ./cmd/tkdserver
(cd "$root/tkdbench" && go build -o "$out/bin/tkdbench" .)
exec "$out/bin/tkdbench" -server "$out/bin/tkdserver" -workdir "$out" "$@"
