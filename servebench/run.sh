#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload skewed-closed --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh --selftest
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); fixture
# archives are cached under .servebench/.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
exec "$CARGO_TARGET_DIR/release/servebench" "$@"
