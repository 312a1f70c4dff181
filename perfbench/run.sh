#!/usr/bin/env bash
# Builds fpserve and the perfbench program from the tree this script sits
# in, then runs perfbench with the given arguments. Every build artefact, Go
# build cache and run file stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root" && go build -o "$build/bin/fpserve" ./cmd/fpserve) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

cd "$root"
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
