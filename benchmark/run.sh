#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out F]
#   bash benchmark/run.sh compare A.json B.json
#
# Everything the build writes (Go build cache, the binary) stays under
# .bench_build/ at the checkout root, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/dpc-benchmark" .)
case "${1:-}" in
run | compare | manifest) ;;
*) set -- run "$@" ;;
esac
cd "$root"
exec "$build/dpc-benchmark" "$@"
