#!/usr/bin/env bash
# Builds the benchmark and the safeflow CLI from the checkout this is run
# in, then runs the benchmark with every argument passed through. Run it
# from the root of a SafeFlow checkout:
#
#   bash bench/run.sh -workload scale-130tu -seed 1 -seconds 20 -trace 0
#
# Every build product, the Go build cache and every temp dir stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/safeflow || ! -f bench/go.mod ]]; then
  echo "run.sh: run from the root of a SafeFlow checkout (go.mod, internal/, cmd/safeflow/, bench/)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -o "$out/safeflow" ./cmd/safeflow
(cd bench && go build -o "$out/sfbench5" .)
exec "$out/sfbench5" -cli "$out/safeflow" -workdir "$out/work" "$@"
