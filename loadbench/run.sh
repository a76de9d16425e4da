#!/usr/bin/env bash
# Builds locapd from the repository's workspace and the benchmark client
# from this package, then runs the client:
#
#   bash loadbench/run.sh --workload census-cold --seed 1 --seconds 12 --trace 0
#
# Both builds go to $CARGO_TARGET_DIR (default: the repository's target/);
# the client finds locapd next to itself and keeps its work files under
# $CARGO_TARGET_DIR/loadbench-work.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin locapd
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/loadbench" "$@"
