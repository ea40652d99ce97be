#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it from the
# repository root, passing every argument on to `main.exe run`:
#
#   bash bench/e2e/run.sh --workload suite-new --seed 11 --seconds 20 --trace 0
#
# The build stays inside the checkout (_build, no shared dune cache).
set -eu
cd "$(dirname "$0")/../.."
exec dune exec --root . --display quiet --cache disabled -- bench/e2e/main.exe run "$@"
