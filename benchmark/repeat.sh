#!/usr/bin/env bash
# Runs the full benchmark twice and fails if, on any workload, any
# end-to-end metric's two medians differ by more than the metric's bound.
# The output belongs in the description of a change to this directory.
#
#   benchmark/repeat.sh [--seed n] [--seconds s]
set -uo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
status=0
for run in first second; do
    echo "=== $run run ==="
    "$here/run.sh" "$@" --out "$here/out/repeat-$run" || status=1
done
echo "=== first against second ==="
"$here/run.sh" --compare "$here/out/repeat-first" "$here/out/repeat-second" || status=1
exit $status
