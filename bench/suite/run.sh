#!/bin/sh
# Builds the benchmark suite from source and runs it; all arguments go to
# the suite.  Run from the repository root, for example
#   sh bench/suite/run.sh --workload frame_sim --seed 1 --seconds 20 --trace 0
# Build products and temporary files stay in .bench_build.
set -e
build=.bench_build
mkdir -p "$build/tmp"
TMPDIR="$PWD/$build/tmp" DUNE_CACHE=disabled \
  dune build --root . --build-dir "$build" --display quiet ./bench/suite/suite.exe 1>&2
exec "$build/default/bench/suite/suite.exe" "$@"
