#!/usr/bin/env bash
# Builds the suite and the sppl-serve daemon from source, then runs the
# suite with the given arguments. Run from the repository root:
#
#   bash sppl_suite/run.sh --workload paper_e2e --seed 1 --seconds 20 --trace 0
#   bash sppl_suite/run.sh --smoke
#
# Build output goes to $CARGO_TARGET_DIR (default sppl_suite/target).
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "$target/release/sppl-suite" "$@"
