#!/usr/bin/env bash
# Build the `monet` CLI and the benchmark from source, then run it:
#
#   bash perfbench/run.sh --workload splits|ganesh|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_work.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/monet-serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (no monet workspace here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p monet-serve --bin monet >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --monet "$CARGO_TARGET_DIR/release/monet" "$@"
