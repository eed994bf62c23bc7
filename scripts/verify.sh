#!/usr/bin/env bash
# Full per-PR verification: build, tests, vet, formatting, the
# allocation and determinism pins at a second core count, the benchmark
# module's vet and tests plus a one-second traced benchmark run, the
# repo's own nine-analyzer lint pass, and the race detector over every
# package with concurrency. Mirrors the "Full verify" block in
# ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go test"
go test ./...

# go test ./... ran the pins at the machine's core count; re-run them
# serially, and on a 1-CPU host at 2 as well, so both the serial and the
# sharded kernels are pinned. par's shared pool reads GOMAXPROCS at
# init, so it is set through the environment; -count=1 keeps the test
# cache, which does not key on GOMAXPROCS, from replaying results.
pins='Alloc|Determinis|Ownership|Match|Equivalence|Golden'
procs=(1)
if [ "$(nproc)" -lt 2 ]; then
    procs+=(2)
fi
for p in "${procs[@]}"; do
    echo "== pins at GOMAXPROCS=$p"
    GOMAXPROCS="$p" go test -count=1 -run "$pins" ./internal/...
done

echo "== go vet"
go vet ./...

# perfbench is its own module (replace soteria => ../), so ./... above
# never compiles it; vet and test it here so a facade change that
# breaks the benchmark fails verification, not the benchmark run.
echo "== perfbench module"
(cd perfbench && go vet ./... && go test ./...)

# Vet and tests compile the benchmark's trace but never load a model
# this build trained. One traced scan-batch second does: it trains the
# model (or reuses the one cached in .bench_build/ for this binary),
# checks a subset of the scan's decisions, RE bit for bit, against
# per-sample analysis, and replays the inputs through Options() and the
# packed vocabularies. About a minute when it trains, seconds when the
# model is cached.
echo "== perfbench smoke (scan-batch, traced)"
smoke="$(bash perfbench/run.sh --workload scan-batch --seed 1 --seconds 1 --trace 1 2>&1)" || {
    echo "$smoke" >&2
    exit 1
}
last="$(tail -n 1 <<<"$smoke")"
echo "$last"
if ! grep -q '"correct":true' <<<"$last" || ! grep -Eq '"failed":0[,}]' <<<"$last"; then
    echo "perfbench smoke: want \"correct\":true and \"failed\":0 on the last line" >&2
    exit 1
fi

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== soterialint (nine analyzers, interprocedural facts)"
go run ./cmd/soterialint ./...

echo "== race suite"
go test -race ./internal/features ./internal/ngram ./internal/nn ./internal/core \
    ./internal/par ./internal/walk ./internal/autoenc ./internal/cnn \
    ./internal/obs ./internal/lint ./internal/store ./internal/fleet ./internal/registry \
    ./internal/graph ./internal/labeling
# The HTTP serve, hot-swap and in-process fleet tests drive the Batcher,
# the registry and the front door from concurrent clients. The rest of
# cmd/soteria trains models and runs the CLI's file mode, whose
# concurrency the internal packages' race tests already cover, and
# would add minutes under -race, so only these run here.
go test -race -run 'Serve|Fleet' ./cmd/soteria

echo "verify: OK"
