#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash benchmark/run.sh --workload sim-dpor --seed 0 --seconds 20 --trace 0
#   bash benchmark/run.sh run --seed 0
# Build output goes to stderr; the benchmark's own output to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
