#!/usr/bin/env bash
# Build the benchmark from this checkout, then run one workload:
#
#   bash perfbench/run.sh --workload exact-random --seed 1987 --seconds 15 --trace 0
#
# Run it from the root of the checkout.  Build output goes to standard
# error; the last line of standard output is the result object.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench/run.sh: run from the root of an ovo checkout" >&2
  exit 2
fi
# --cache=disabled keeps the build inside this checkout
dune build --root . --cache=disabled ./perfbench/ovobench.exe 1>&2
mkdir -p perfbench-out
# runtime_events rings (traced runs only) live beside the other outputs
export OCAML_RUNTIME_EVENTS_DIR=perfbench-out
exec ./_build/default/perfbench/ovobench.exe "$@"
