#!/usr/bin/env bash
# Builds the benchmark driver from source, then runs it with the given
# arguments:
#   bash perfbench/run.sh --workload replay|check|fleet --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the driver's last stdout line is its
# JSON result. Outside a full checkout of the repository the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Keep every build artefact, and the compilers' temporary files, inside
# the checkout.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
