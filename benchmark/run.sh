#!/usr/bin/env bash
# The benchmark of record (see README.md).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--json FILE]  all six workloads, untraced
#   benchmark/run.sh --traced [--seed N] [--json FILE]        traced rounds + layer probes
#   benchmark/run.sh compare <a.json> <b.json>                apply the bounds to two result files
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one driver run (BENCHMARK.json)
#
# Builds the root `bsc` binary and this package from source, then runs the
# harness against it. Everything it writes stays under benchmark/ (and
# $CARGO_TARGET_DIR when the caller sets one).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries the report and, last, the
# driver's result line.
cargo build --release --offline --quiet -p bsc-service --bin bsc >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ "${1:-}" = "compare" ]; then
  exec "$target/release/bsc-benchmark" "$@"
fi
exec "$target/release/bsc-benchmark" --bsc "$target/release/bsc" --out "$here/out" "$@"
