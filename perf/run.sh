#!/usr/bin/env bash
# One command for the benchmark: build massf-perf from source, then run.
#
#   perf/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run (what BENCHMARK.json's command does); the last line of
#       stdout is the result as one JSON object
#   perf/run.sh [--seed S] [--runs N]
#       5 untraced + 1 traced run per workload, aggregated, every metric
#       printed as `name value unit`, written to perf/out/results.json
#   perf/run.sh --quick
#       test-sized inputs, one run each: digests and counts only
#   perf/run.sh selfcheck | diff A.json B.json
#       see perf/README.md
#
# Run from the repository root: paths below are relative to it, and
# CARGO_TARGET_DIR (if set) may be relative too.
set -euo pipefail

manifest=perf/Cargo.toml
if [[ ! -f "$manifest" || ! -d crates ]]; then
    echo "error: run from the root of a checkout that has crates/ and perf/" >&2
    exit 2
fi

# Quiet build; compiler output only on failure.
if ! log=$(cargo build --release --offline --manifest-path "$manifest" 2>&1); then
    echo "$log" >&2
    exit 1
fi
bin="${CARGO_TARGET_DIR:-perf/target}/release/massf-perf"

case "${1:-}" in
    --workload | --tiny | selfcheck | diff | suite) exec "$bin" "$@" ;;
    *) exec "$bin" suite "$@" ;;
esac
