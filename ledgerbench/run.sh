#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash ledgerbench/run.sh --workload fig6-feedback --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, WAL and audit scratch,
# span files) stays under .bench_build/ in the current directory. Build
# output goes to standard error, so the last line of standard output is
# the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

if ! (cd "$here" && go build -o "$out/ledgerbench" .) >&2; then
	echo "ledgerbench: build failed (run from the repository root)" >&2
	exit 2
fi
cd "$root"
exec "$out/ledgerbench" --out "$out/ledger" "$@"
