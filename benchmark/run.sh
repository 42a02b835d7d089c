#!/usr/bin/env bash
# Builds the release binaries (untimed) and runs the benchmark from the
# repository root.
#
#   benchmark/run.sh [--workload figures|serve-read|cluster-write]
#                    [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#
# Without --workload every workload runs untraced, then traced. Metrics
# print as `workload metric value unit`; the last line is a JSON summary
# and DIR (default benchmark/out) receives result.json and the spans.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: $(pwd) holds no Cargo.toml and crates/ to build" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    -p stride-bench --bin repro -p stride-server --bin strided --bin strided-router >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stride-benchmark" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
