#!/usr/bin/env bash
# Builds stird and the benchmark from this checkout, then runs it:
#   bash stirbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin stird >&2
cargo build --release --offline --quiet --manifest-path stirbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stirbench" "$@"
