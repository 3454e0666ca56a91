#!/usr/bin/env bash
# Builds the benchmark and the `watchmand` it drives (one package, two
# binaries, release profile), then runs the benchmark with the given flags.
# Run from the repository root.  Everything it writes stays under the cargo
# target directory ($CARGO_TARGET_DIR, default bench_e2e/target).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench_e2e/target}"
cargo build --release --quiet --manifest-path bench_e2e/Cargo.toml
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
