#!/usr/bin/env bash
# Format, lint, unit tests and a smoke run for the benchmark's own package.
# The root ci.sh cannot see it: its --workspace flags stop at the root
# workspace, which this package is deliberately not a member of.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
# Every workload at 1/20 size, untraced and traced: each run refuses to
# print a result whose metric names differ from the catalogue, and the unit
# tests above hold the catalogue and BENCHMARK.json together.
./run.sh --quick
./run.sh --quick --trace
echo "check.sh: ok"
