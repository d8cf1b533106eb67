#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs one
# workload. Every build and run artifact stays under svcbench/.build and
# svcbench/.run inside the checkout.
#
#   bash svcbench/run.sh --workload durable-lifecycle --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/svcbench" .)
cd "$here/.."
exec "$build/svcbench" "$@"
