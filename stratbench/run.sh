#!/usr/bin/env bash
# Builds the stratbench driver from the checkout this script sits in and
# runs it from the checkout root, passing every argument through:
#
#   bash stratbench/run.sh --workload recover --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and the benchmark's data dirs all stay
# under <checkout>/.bench_build. The driver is a package of the
# repository's Go module one directory up, so outside a full checkout
# it fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ]; then
	echo "stratbench: no go.mod in $root; run from a full checkout" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/stratbench" .
cd "$root"
exec "$build/stratbench" -workdir "$build" "$@"
