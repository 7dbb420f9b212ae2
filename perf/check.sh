#!/usr/bin/env bash
# Lint and test gate for the benchmark crate: formatting, clippy with
# warnings denied, unit + whole-run tests, and the quick suite.
# Run from the repository root.
set -euo pipefail

manifest=perf/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest" -q
bash perf/run.sh --quick
echo "perf/check.sh: all clean"
