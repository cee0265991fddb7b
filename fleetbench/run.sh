#!/usr/bin/env bash
# Builds `repro` and the benchmark from source, then runs one benchmark
# pass. Arguments pass through, e.g.:
#   bash fleetbench/run.sh --workload exact_miss --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build) and to standard error; the result is the last
# line of standard output.
set -euo pipefail
: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --quiet -p greencloud-bench --bin repro >&2
cargo build --release --quiet --manifest-path fleetbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fleetbench" \
  --repro "$CARGO_TARGET_DIR/release/repro" \
  --out-dir "$CARGO_TARGET_DIR/fleetbench" "$@"
