#!/usr/bin/env bash
# Builds lotusx-serve and the benchmark from source, then runs one pass:
#   bash perfbench/run.sh --workload complete|twig|keyword --seed N \
#        --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p lotusx-serve --bin lotusx-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lotusx-perfbench" \
    --server "$CARGO_TARGET_DIR/release/lotusx-serve" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" "$@"
