#!/usr/bin/env bash
# The one command: builds the benchmark offline and runs it.
#
#   benchmark/run.sh                  all four workloads, end-to-end metrics
#   benchmark/run.sh --traced         all four workloads, per-layer metrics + span files
#   benchmark/run.sh --smoke          1 repetition, counts / 32 (a quick check, not a measurement)
#   benchmark/run.sh --workload a1_tcp --seed 1 --seconds 30 --trace 0
#                                     one workload; the last line of output is its JSON result
#
# Build output goes to $CARGO_TARGET_DIR if set, else to the repository's
# target/ directory. Everything else is written under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/payment_path" --out "$here/out" "$@"
