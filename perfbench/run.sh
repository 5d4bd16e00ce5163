#!/usr/bin/env bash
# Builds the server binary and the benchmark from source, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); reports and span files go to perfbench/out.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release -q --manifest-path Cargo.toml -p segidx-server --bin segidx_server >&2
cargo build --release -q --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/segidx_server" "$@"
