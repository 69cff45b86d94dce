#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the root of
# the checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, temporaries, the binary) stays inside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/qvisor-bench" .
cd "$root"
exec "$out/qvisor-bench" "$@"
