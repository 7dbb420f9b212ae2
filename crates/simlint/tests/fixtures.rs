//! One fixture file per rule: scan each as one crate and assert exactly
//! the marked violations fire. simlint's D4 and D5 fixtures are scanned
//! by simlint; the fixtures of the former rules D1–D3, S1, S2 and of the
//! suppression forms are checked by clippy under the crate's lint
//! configuration. The fixtures directory is excluded from workspace scans
//! and is never built.

mod clippy;

use clippy::{findings, Finding};
use massf_simlint::{scan_source, Rule};
use std::path::Path;

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).expect("fixture file is readable")
}

fn scan_fixture(name: &str, krate: &str) -> Vec<(Rule, u32)> {
    scan_source(name, krate, &read_fixture(name))
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

fn clippy_fixture(name: &str, krate: &str) -> Vec<Finding> {
    findings(krate, &read_fixture(name))
}

/// The distinct lines of `found`, each checked to be one of `lints`.
fn lines_of(found: &[Finding], lints: &[&str]) -> Vec<u32> {
    assert!(
        found.iter().all(|f| lints.contains(&f.lint.as_str())),
        "{found:?}"
    );
    let mut lines: Vec<u32> = found.iter().map(|f| f.line).collect();
    lines.dedup();
    lines
}

const HASH_LINTS: [&str; 2] = ["clippy::disallowed_methods", "clippy::iter_over_hash_type"];
const CLOCK_OR_ENTROPY: &str = "clippy::disallowed_types";
const UNWRAP: &str = "clippy::unwrap_used";

#[test]
fn d1_hash_iteration_fixture() {
    let found = clippy_fixture("d1_hash_iter.rs", "engine");
    // keys() loop, for-loop over the set, indexed-receiver iter().
    assert_eq!(lines_of(&found, &HASH_LINTS), [13, 17, 21], "{found:?}");
}

#[test]
fn d1_does_not_apply_outside_deterministic_crates() {
    // The shims inherit no workspace lints and read no clippy.toml.
    let found = clippy_fixture("d1_hash_iter.rs", "shims/rand");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn d2_wall_clock_fixture() {
    let found = clippy_fixture("d2_wallclock.rs", "engine");
    let lines = lines_of(&found, &[CLOCK_OR_ENTROPY]);
    // The test module's clock read is flagged too: clippy checks test
    // builds with the same configuration.
    assert_eq!(lines, [6, 7, 8, 16], "{found:?}");
    // bench is allowed to read the clock.
    assert!(clippy_fixture("d2_wallclock.rs", "bench").is_empty());
}

#[test]
fn d2_atomic_min_pattern_is_clean() {
    // The executor's Relaxed-atomics-plus-barrier rendezvous must pass
    // every lint without an expectation, in the strictest crate scope.
    for krate in ["engine", "core", "bench"] {
        let found = clippy_fixture("d2_atomic_min.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d2_spin_park_barrier_pattern_is_clean() {
    // The window barrier's atomic generation + `spin_loop` + iteration
    // budget + condvar park must pass every lint without an expectation.
    for krate in ["engine", "core", "bench"] {
        let found = clippy_fixture("d2_spin_park_barrier.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d2_clock_bounded_spin_is_flagged() {
    // The same spin bounded by `Instant::now()` reads the host clock.
    let found = clippy_fixture("d2_spin_clock_bound.rs", "engine");
    assert_eq!(found, [(CLOCK_OR_ENTROPY, 12)]);
    assert!(clippy_fixture("d2_spin_clock_bound.rs", "bench").is_empty());
}

#[test]
fn d1_route_interning_pattern_is_clean() {
    // The million-host layout's interning table (point HashMap lookups
    // only) and CSR port table (sorted-array walks) must pass every lint
    // without an expectation in the crates that use the pattern.
    for krate in ["netsim", "engine", "routing"] {
        let found = clippy_fixture("route_interning.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d1_snapshot_serializer_pattern_is_clean() {
    // The checkpoint serializer (sorted-slab walks + streaming CRC,
    // crates/snapshot) must pass every lint without an expectation in
    // the snapshot crate's own configuration and in the other
    // deterministic-critical crates.
    for krate in ["snapshot", "engine", "netsim"] {
        let found = clippy_fixture("snapshot_serializer.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d1_applies_to_the_snapshot_crate_by_default() {
    // A hash-iteration in the snapshot crate is a violation: checkpoint
    // bytes must be a pure function of the world.
    let found = clippy_fixture("d1_hash_iter.rs", "snapshot");
    assert_eq!(lines_of(&found, &HASH_LINTS), [13, 17, 21], "{found:?}");
}

#[test]
fn d3_entropy_fixture() {
    let found = clippy_fixture("d3_entropy.rs", "engine");
    assert_eq!(found, [(CLOCK_OR_ENTROPY, 7), (CLOCK_OR_ENTROPY, 8)]);
    assert!(clippy_fixture("d3_entropy.rs", "bench").is_empty());
}

#[test]
fn s1_unwrap_fixture() {
    let found = clippy_fixture("s1_unwrap.rs", "workloads");
    // unwrap and panic!; the empty expect on line 6 is the documented gap.
    assert_eq!(found, [(UNWRAP, 5), ("clippy::panic", 8)]);
}

#[test]
fn s2_cast_fixture() {
    let found = clippy_fixture("s2_cast.rs", "engine");
    let narrowing = ["clippy::cast_possible_truncation"];
    assert_eq!(lines_of(&found, &narrowing), [5, 6, 7], "{found:?}");
    // Out of scope for crates that do not deny narrowing casts.
    assert!(clippy_fixture("s2_cast.rs", "netsim").is_empty());
}

#[test]
fn d4_float_order_fixture() {
    let found = scan_fixture("d4_float_order.rs", "engine");
    assert!(
        found.iter().all(|(r, _)| *r == Rule::FloatOrder),
        "{found:?}"
    );
    let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
    // sum::<f64> turbofish, float fold, += in a hinted loop; the
    // max-fold / unhinted / integer / #[cfg(test)] shapes are silent.
    assert_eq!(lines, vec![5, 9, 15], "{found:?}");
}

#[test]
fn d4_out_of_scope_crate_is_exempt() {
    // `workloads` is not in the float-order include list: replay there
    // never feeds state back into the deterministic core.
    assert!(scan_fixture("d4_float_order.rs", "workloads").is_empty());
}

#[test]
fn d4_partition_reduce_pattern_is_clean() {
    // The documented remediation — sort by partition id, then reduce in
    // a fixed order — must pass every rule in the strictest scopes.
    for krate in ["engine", "parutil", "core"] {
        let found = scan_fixture("d4_partition_reduce.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d5_taint_fixture() {
    // The taint rule fires at the four sinks the clock, entropy and
    // pointer values reach, and nowhere else.
    let found = scan_fixture("d5_taint.rs", "engine");
    assert_eq!(
        found,
        [9, 10, 16, 21].map(|l| (Rule::DeterminismTaint, l)),
        "{found:?}"
    );
}

#[test]
fn d5_barrier_wait_fixture() {
    let found = scan_fixture("d5_barrier_wait.rs", "engine");
    assert!(
        found.iter().all(|(r, _)| *r == Rule::DeterminismTaint),
        "{found:?}"
    );
    let lines: Vec<u32> = found.iter().map(|(_, l)| *l).collect();
    // from_us sink, schedule_at sink, `.seed =` field sink; the
    // deterministic partition_totals decision and the report-only wait
    // read stay silent.
    assert_eq!(lines, vec![10, 11, 16], "{found:?}");
    // bench may measure whatever it likes.
    assert!(scan_fixture("d5_barrier_wait.rs", "bench").is_empty());
}

#[test]
fn d5_bench_crate_is_exempt() {
    let found = scan_fixture("d5_taint.rs", "bench");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn d5_sim_derived_pattern_is_clean() {
    // Event times and seeds derived from scenario config / simulated
    // state hit the same sink functions and must stay silent.
    for krate in ["engine", "core", "netsim"] {
        let found = scan_fixture("d5_sim_derived.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn suppression_fixture() {
    let found = clippy_fixture("suppressed.rs", "engine");
    // Everything expected except the final undocumented unwrap.
    assert_eq!(found, [(UNWRAP, 19)]);
}

#[test]
fn clean_fixture_is_clean() {
    for krate in ["engine", "routing", "bench", "workloads"] {
        let found = clippy_fixture("clean.rs", krate);
        assert!(found.is_empty(), "{krate}: {found:?}");
    }
}

#[test]
fn d5_pointer_sources_fail_clippy_in_netsim() {
    // Every pointer-making line fires; `Arc::ptr_eq`, a coercion and
    // `{:p}` do not.
    let found = clippy_fixture("d5_pointer_source.rs", "netsim");
    let lints = [
        "clippy::disallowed_methods",
        "clippy::disallowed_macros",
        "clippy::ref_as_ptr",
        "clippy::borrow_as_ptr",
    ];
    assert_eq!(
        lines_of(&found, &lints),
        [8, 12, 16, 20, 24, 28, 32, 36, 40],
        "{found:?}"
    );
}
