#!/bin/sh
# Build the analyzer and the benchmark from source, then run the benchmark
# with the given arguments. Run from anywhere; it works in the checkout
# that contains it. Build output goes to stderr so that the benchmark's
# result line stays the last line of stdout.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet \
  ./bin/cqualc.exe ./bin/typequald.exe ./gatebench/typequal_bench.exe 1>&2
exec ./_build/default/gatebench/typequal_bench.exe "$@"
