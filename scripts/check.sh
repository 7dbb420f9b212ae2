#!/usr/bin/env bash
# Workspace gate: formatting, lints, static analysis, and the test suite.
# Run from anywhere; operates on the repository containing this script.
# Determinism and safety are split between two tools:
#   clippy   hash iteration, wall clock and entropy (disallowed_methods,
#            disallowed_types, iter_over_hash_type; crates/clippy.toml),
#            raw-pointer creation (the same paths plus disallowed_macros,
#            ref_as_ptr, borrow_as_ptr), unwrap_used, panic, allows
#            without a reason, and narrowing casts in engine and routing. Root Cargo.toml's
#            [workspace.lints.clippy] carries the set, so a plain
#            `cargo clippy -- -D warnings` enforces all of it.
#   simlint  D4 float order and D5 determinism taint, which no lint
#            expresses: every .rs file under crates/ and tests/, any
#            finding fails the gate.
#
#   scripts/check.sh          full gate (including the release-mode
#                             mem_footprint --smoke run, the
#                             fig03_load_variation, fig05_sync_cost,
#                             suite (--repeats 1), fault_flap_study,
#                             checkpoint_study, rebalance_study,
#                             scaling_study and ablation_sync_cost runs
#                             at --scale tiny, fluid_fidelity (it takes
#                             no flags), the five massf-core examples
#                             (quickstart, single_as_study,
#                             multi_as_study, bgp_policy_explorer,
#                             bgp_beacon), and the benchmark crate's
#                             own gate, perf/check.sh)
#   scripts/check.sh --fast   skip the release-mode runs
#
# The simulator's checks live in `cargo test`; the release-mode runs
# only prove each study binary and example still runs end to end.
#
# Each stage is wall-clock timed; a summary table prints at the end,
# then scripts/loc.sh's count of crates/ lines outside `#[cfg(test)]`
# items (not a gate).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *)
            echo "usage: $0 [--fast]" >&2
            exit 2
            ;;
    esac
done

STAGE_NAMES=()
STAGE_SECS=()

# stage <name> <cmd...>: run a gate stage, recording its wall-clock time.
stage() {
    local name="$1"
    shift
    echo "== $name =="
    local start end
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((end - start)))
}

stage "cargo fmt --check" \
    cargo fmt --all -- --check

# simlint runs before clippy: it needs no compilation, so float-order
# and taint findings surface in under a second instead of after a full
# workspace build.
stage "simlint (D4 float order, D5 determinism taint)" \
    cargo run -q -p massf-simlint

stage "cargo clippy (workspace lints: hash/clock/entropy, pointers, unwrap, panic, casts, reasons)" \
    cargo clippy --workspace --all-targets -- -D warnings

# Broken intra-doc links (including stale links to deleted items) are
# rustdoc warnings; -D warnings makes them fail the gate.
stage "cargo doc (intra-doc links resolve)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# perf/ is its own workspace, so neither the stages above nor tier-1
# build it; this catches a refactor that breaks a name perf/README.md
# lists under "What the harness imports".
stage "cargo check perf/ (the benchmark harness still compiles)" \
    cargo check --offline -q --manifest-path perf/Cargo.toml --all-targets

stage "cargo test" \
    cargo test -q

if [ "$FAST" -eq 0 ]; then
    stage "mem_footprint --smoke" \
        cargo run --release -q -p massf-bench --features alloc-count --bin mem_footprint -- --smoke
    stage "fig03_load_variation --scale tiny" \
        cargo run --release -q -p massf-bench --bin fig03_load_variation -- --scale tiny
    stage "fig05_sync_cost --scale tiny" \
        cargo run --release -q -p massf-bench --bin fig05_sync_cost -- --scale tiny
    stage "suite --scale tiny --repeats 1" \
        cargo run --release -q -p massf-bench --bin suite -- --scale tiny --repeats 1
    stage "fault_flap_study --scale tiny" \
        cargo run --release -q -p massf-bench --bin fault_flap_study -- --scale tiny
    stage "checkpoint_study --scale tiny" \
        cargo run --release -q -p massf-bench --bin checkpoint_study -- --scale tiny
    stage "rebalance_study --scale tiny" \
        cargo run --release -q -p massf-bench --bin rebalance_study -- --scale tiny
    stage "scaling_study --scale tiny" \
        cargo run --release -q -p massf-bench --bin scaling_study -- --scale tiny
    stage "ablation_sync_cost --scale tiny" \
        cargo run --release -q -p massf-bench --bin ablation_sync_cost -- --scale tiny
    stage "fluid_fidelity" \
        cargo run --release -q -p massf-bench --bin fluid_fidelity
    for example in quickstart single_as_study multi_as_study bgp_policy_explorer bgp_beacon; do
        stage "example $example" \
            cargo run --release -q -p massf-core --example "$example"
    done
    stage "perf/check.sh (benchmark crate: fmt, clippy, tests, --quick suite)" \
        bash perf/check.sh
else
    echo "== release-mode runs skipped (--fast) =="
fi

echo
echo "== stage timings =="
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '%4ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
    total=$((total + STAGE_SECS[i]))
done
printf '%4ds  total\n' "$total"

echo
echo "== non-test lines under crates/ (scripts/loc.sh) =="
scripts/loc.sh

echo "All checks passed."
