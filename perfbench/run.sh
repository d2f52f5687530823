#!/usr/bin/env bash
# Build the verifier and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository. Build output goes to stderr; the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: run from the root of the repository (dune-project, lib/, bin/ not found)" >&2
  exit 2
fi

dune build --root . ./perfbench/main.exe ./bin/dampi_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe --dampi ./_build/default/bin/dampi_cli.exe "$@"
