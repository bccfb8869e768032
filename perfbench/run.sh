#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload flood-64b --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced run's span files stay
# under .bench_build/perfbench at the root of the checkout. The build
# uses only the local module (no network, no toolchain download).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Build under a private name and rename, so a concurrent run of the
# benchmark never executes a half-written binary.
(cd "$here" && go build -o "$out/perfbench.$$" .) >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" -specs "$here/specs" -out "$out" "$@"
