#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload closed_rw_medium --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR,
# or to target/perfbench when that is unset. The last line of standard
# output is the JSON result; everything else goes to standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-target/perfbench}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

exec "$target/release/stmbench7-perfbench" --spans-dir "$target/perfbench-spans" "$@"
