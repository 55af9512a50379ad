#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the tier-1 verification suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== explain golden file =="
cargo test -q --test explain_golden

echo "== obs smoke =="
cargo test -q -p ausdb-engine obs
cargo test -q -p ausdb-obs

echo "== telemetry: server tests + determinism invariant =="
cargo test -q -p ausdb-serve
cargo test -q -p ausdb-serve --test loopback observing_never_perturbs_results

echo "== number text: release-mode differential vs Display (>= 20M bit patterns) =="
cargo test -q --release -p ausdb-serve --lib numtext::tests::writer_equals_display_at_volume -- --ignored

echo "== server smoke =="
bash scripts/server_smoke.sh

echo "== benchmark oracles: transcripts vs ShardSet replay, kill -9 recovery (real binary) =="
# flood_standing: standing set under a closed-loop flood; paced_standing: WAL
# + late rows + standing set at part load, the path the fan-out writer serves;
# paced_query: the only workload whose replies carry `emp(…)` samples and
# bootstrap intervals end to end.
# The harness exits non-zero on a failed oracle; the result line is checked too.
report=$(mktemp)
for workload in flood_standing paced_standing paced_query; do
    bash benchmark/run.sh --quick --workload "$workload" | tee "$report"
    [[ "$(tail -n 1 "$report")" == '{"correct": true,'*'"failed": 0,'* ]] ||
        { echo "benchmark $workload: oracle or operation failures" >&2; exit 1; }
done
rm -f "$report"

echo "CI OK"
