#!/usr/bin/env bash
# Builds cmd/soteria and the benchmark from the checkout it is run in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-paper --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Build output, the Go build cache,
# the trained model and trace files all stay in .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/soteria || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the root of a soteria checkout" >&2
  exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$out/soteria" ./cmd/soteria
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/soteria" -work "$out" "$@"
