#!/usr/bin/env bash
# The one command of the ausdb benchmark: builds `ausdb` (the server under
# test, from the root manifest, with its release profile) and the harness
# (this directory's own package), then runs the harness from the checkout
# root. Everything after the build is `ausdb-benchmark`'s business:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--quick] [--repeat K] [--write-manifest]
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The driver sets CARGO_TARGET_DIR; by hand, both builds share ./target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin ausdb
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ausdb-benchmark" \
    --server-bin "$CARGO_TARGET_DIR/release/ausdb" "$@"
