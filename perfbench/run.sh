#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#   bash perfbench/run.sh --workload <paper|scale|churn> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --locked --manifest-path "$here/Cargo.toml" --bins >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
