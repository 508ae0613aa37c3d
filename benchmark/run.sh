#!/usr/bin/env bash
# The one command of the benchmark (BENCHMARK.json names it):
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --selfcheck
#
# Builds the program if it is not built yet, runs it, and leaves its exit
# code: non-zero when a check failed or the run could not complete. Every
# metric is printed by name with its unit; the last line of standard
# output is the result as one JSON object. Scratch stores and traces go
# under the build's target directory and nowhere else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exe="$(bash "$here/build.sh")"
exec "$exe" "$@"
